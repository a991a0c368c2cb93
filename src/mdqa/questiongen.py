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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional

from .corpus import (
    CorpusError,
    DocumentCollection,
    FactRecord,
    FactTable,
    eval_formula,
    formula_refs,
    parse_formula,
    value_findable_in_doc,
)
from .files import read_jsonl, write_jsonl
from .records import Answer, page_refs, typed


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
class Question:
    question_id: str
    template_id: str
    text: str
    slots: dict
    complexity_tags: frozenset[str]
    gold: Answer
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
        """A question record, its fields read by type. Raises ``ValueError``
        for a template that does not exist. Whether the record is what its
        template and bindings make is ``realise_question``'s to say."""
        for name in ("question_id", "template_id", "text"):
            if not isinstance(raw[name], str):
                raise TypeError(f"{name} must be a string, got {raw[name]!r}")
        bindings = raw.get("bindings", {})
        if not isinstance(bindings, dict):
            raise TypeError(f"bindings must be an object, got {bindings!r}")
        if raw["template_id"] not in TEMPLATES:
            raise ValueError(f"template_id {raw['template_id']!r} names no template")
        tags = typed(raw["complexity_tags"], "complexity_tags", list)
        return Question(
            question_id=raw["question_id"],
            template_id=raw["template_id"],
            text=raw["text"],
            slots=raw["slots"],
            complexity_tags=frozenset(typed(t, "a complexity tag", str) for t in tags),
            gold=Answer.from_json_dict(raw["gold"]),
            gold_docs=tuple(
                typed(d, "a gold doc", str) for d in typed(raw["gold_docs"], "gold_docs", list)
            ),
            gold_pages=tuple(page_refs(raw["gold_pages"], "gold_pages")),
            dataset_year=typed(raw["dataset_year"], "dataset_year", int),
            bindings=bindings,
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
    ``leaf`` for every reported metric. ``FactTable`` refuses a cyclic
    definition; a zero divisor raises MissingFactError."""

    def lookup(symbol: str, metric_id: str, year: int) -> float:
        metric = fact_table.metric(metric_id)
        if metric.kind != "compound":
            return leaf(symbol, metric_id, year)
        node = parse_formula(metric.formula)
        values = {ref: lookup(symbol, ref, year) for ref in sorted(formula_refs(node))}
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
            raise MissingFactError(f"no fact for ({symbol}, {year!r}, {metric_id})")
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
) -> Answer:
    """Apply a gold-computation rule over values supplied by ``lookup``.

    ``binding`` carries resolved slot values: symbols, metric ids, years.
    """
    if rule in ("single_value", "compound_value"):
        year = binding.get("year", dataset_year)
        value = lookup(binding["symbol"], binding["metric"], year)
        return Answer(kind="number", number=value)

    if rule == "sum_over_years":
        num_year = binding["num_year"]
        years = range(dataset_year - num_year + 1, dataset_year + 1)
        total = 0.0
        for year in years:
            total += lookup(binding["symbol"], binding["metric"], year)
        return Answer(kind="number", number=total)

    if rule == "pct_difference":
        year = binding.get("year", dataset_year)
        v1 = lookup(binding["symbol1"], binding["metric"], year)
        v2 = lookup(binding["symbol2"], binding["metric"], year)
        if v2 == 0:
            raise MissingFactError("pct_difference base value is zero")
        return Answer(kind="number", number=(v1 - v2) / v2 * 100.0)

    if rule == "overall_growth":
        base_year = dataset_year - binding["num_year"]
        v_base = lookup(binding["symbol"], binding["metric"], base_year)
        v_current = lookup(binding["symbol"], binding["metric"], dataset_year)
        if v_base == 0:
            raise MissingFactError("overall_growth base value is zero")
        return Answer(kind="number", number=(v_current - v_base) / v_base * 100.0)

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
        return Answer(kind="number", number=answer)

    if rule == "yes_if_positive":
        year = binding.get("year", dataset_year)
        value = lookup(binding["symbol"], binding["metric"], year)
        return Answer(kind="yesno", label="Yes" if value > 0 else "No")

    if rule == "multi_value":
        year = binding.get("year", dataset_year)
        parts = []
        for key in ("metric1", "metric2"):
            metric_id = binding[key]
            parts.append(
                (metric_display(metric_id), lookup(binding["symbol"], metric_id, year))
            )
        return Answer(kind="multi", parts=tuple(parts))

    raise QuestionGenError(f"unknown gold rule {rule!r}")


def compute_gold_with_provenance(
    rule: str, binding: dict, fact_table: FactTable, dataset_year: int
) -> tuple[Answer, list[FactRecord]]:
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

# Candidate draws per template before giving up on reaching its count.
MAX_ATTEMPTS = 1000


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
) -> dict:
    """Draw one candidate binding for a template: a stock symbol for each
    company slot, a metric id for each metric slot, and the years."""
    symbols = fact_table.symbols()
    if not symbols:
        raise InfeasibleConfigError("fact table has no companies")
    metrics = _metric_pool(template, config, fact_table)
    if not metrics and any(s.startswith("metric") for s in template.slot_names):
        raise InfeasibleConfigError(
            f"template {template.template_id!r}: empty metric pool"
        )
    year_pool = list(config.years) if config.years else fact_table.years()
    binding: dict = {}
    for slot in template.slot_names:
        if slot in ("company", "company1", "company2"):
            choices = [s for s in symbols if s != binding.get("symbol1")]
            binding["symbol" + slot.removeprefix("company")] = rng.choice(choices)
        elif slot == "company_names":
            size = min(config.company_list_size, len(symbols))
            binding["symbols"] = rng.sample(symbols, size)
        elif slot in ("metric", "metric1", "metric2"):
            exclude = binding.get("metric1") if slot == "metric2" else None
            choices = [m for m in metrics if m != exclude]
            if not choices:
                raise InfeasibleConfigError(
                    f"template {template.template_id!r}: metric pool too small"
                )
            binding[slot] = rng.choice(choices)
        elif slot == "year":
            binding["year"] = rng.choice(sorted(year_pool))
        elif slot == "num_year":
            binding["num_year"] = rng.choice(sorted(config.num_years))
        else:
            raise QuestionGenError(f"unknown slot {slot!r}")
    if template.extreme:
        binding["extreme"] = template.extreme
    return binding


def _slots(template: QuestionTemplate, binding: dict, fact_table: FactTable) -> dict:
    """The surface values of ``binding``'s slots: each company's name and
    symbol, each metric's display name and id, and the years as bound."""
    slots: dict = {}
    for slot in template.slot_names:
        if slot == "company_names":
            symbols = list(binding["symbols"])
            slots[slot] = [fact_table.company_name(s) for s in symbols]
            slots["company_names_symbols"] = symbols
        elif slot.startswith("company"):
            symbol = binding["symbol" + slot.removeprefix("company")]
            slots[slot] = fact_table.company_name(symbol)
            slots[f"{slot}_symbol"] = symbol
        elif slot.startswith("metric"):
            slots[slot] = fact_table.metric(binding[slot]).display_name
            slots[f"{slot}_id"] = binding[slot]
        else:
            slots[slot] = binding[slot]
    return slots


def realise_question(
    question_id: str,
    template_id: str,
    bindings: dict,
    dataset_year: int,
    fact_table: FactTable,
) -> tuple[Question, list[FactRecord]]:
    """The question ``template_id`` makes of ``bindings`` in
    ``dataset_year``, and the facts its gold read: the one computation of a
    question's slots, text, tags, gold, gold docs and gold pages, for ``gen``
    and ``run`` alike. The question holds a copy of ``bindings``, with an
    extreme lookup's ``winner_symbol`` and ``tie``. Raises ``KeyError``
    naming ``bindings.<name>`` for an absent binding the template reads,
    ``ValueError`` for an ``extreme`` that is not the template's own (an
    absent one reads as highest), and ``MissingFactError`` or
    ``CorpusError`` when the table gives no gold."""
    template = TEMPLATES[template_id]
    if "extreme" in bindings and bindings["extreme"] != template.extreme:
        want = repr(template.extreme) if template.extreme else "absent"
        raise ValueError(f"bindings.extreme must be {want}, got {bindings['extreme']!r}")
    bindings = dict(bindings)
    try:
        slots = _slots(template, bindings, fact_table)
        gold, consumed = compute_gold_with_provenance(
            template.gold_rule, bindings, fact_table, dataset_year
        )
    except KeyError as exc:
        raise KeyError(f"bindings.{exc.args[0]}") from None
    question = Question(
        question_id=question_id,
        template_id=template_id,
        text=fill_template(template, slots, fact_table),
        slots=slots,
        complexity_tags=template.complexity_tags,
        gold=gold,
        gold_docs=tuple(sorted({rec.source_doc_id for rec in consumed})),
        gold_pages=tuple(
            sorted({(rec.source_doc_id, page) for rec in consumed for page in rec.source_pages})
        ),
        dataset_year=dataset_year,
        bindings=bindings,
    )
    return question, consumed


def _passes_findability(
    template: QuestionTemplate,
    gold: Answer,
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
    draws bindings without replacement until ``count_per_template``
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
        while emitted < config.count_per_template and attempts < MAX_ATTEMPTS:
            attempts += 1
            binding = _draw_binding(template, config, fact_table, rng)
            key = json.dumps(binding, sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            try:
                question, consumed = realise_question(
                    f"{template_id}-{emitted:04d}", template_id, binding,
                    config.dataset_year, fact_table,
                )
            except MissingFactError:
                continue
            if _passes_findability(template, question.gold, consumed, collection):
                questions.append(question)
                emitted += 1
        if emitted == 0:
            raise InfeasibleConfigError(
                f"template {template_id!r}: no slot assignment yielded a "
                f"computable gold within {MAX_ATTEMPTS} attempts"
            )
    return questions


# ---------------------------------------------------------------------------
# Question set files
# ---------------------------------------------------------------------------


def write_questions(questions: list[Question], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_jsonl(path, (q.to_json_dict() for q in questions))


def read_questions(path: str | Path, fact_table: Optional[FactTable] = None) -> list[Question]:
    """The questions of a JSONL file. A ``question_id`` held twice raises
    ``FileFormatError`` naming the second one's ``path:line``. With
    ``fact_table``, so does a record that is not exactly its
    ``realise_question``, naming the first field that differs, a missing
    ``bindings.<name>``, bindings of a type the template cannot read, or why
    the table gives no gold. Its slots and bindings must be of the
    realisation's own JSON types too: ``tie: 0`` is not ``false``."""
    seen: set[str] = set()

    def parse(raw: dict) -> Question:
        question = Question.from_json_dict(raw)
        if question.question_id in seen:
            raise ValueError(f"question_id {question.question_id!r} is held twice")
        seen.add(question.question_id)
        if fact_table is not None:
            try:
                realised, _ = realise_question(
                    question.question_id, question.template_id, question.bindings,
                    question.dataset_year, fact_table,
                )
            except (CorpusError, MissingFactError) as exc:
                raise ValueError(str(exc)) from None
            except TypeError as exc:
                raise ValueError(f"bindings do not fit template {question.template_id}: {exc}") from None
            if realised != question or not (
                _same_json(realised.slots, question.slots)
                and _same_json(realised.bindings, question.bindings)
            ):
                name = next(
                    f.name for f in fields(Question)
                    if not _same_json(getattr(realised, f.name), getattr(question, f.name))
                )
                raise ValueError(f"{name} is not what its template and bindings make")
        return question

    return read_jsonl(path, parse)


def _same_json(a, b) -> bool:
    """``a == b`` with each value of the same type too, into lists and
    objects: ``0`` is not ``false``, nor ``2.0`` ``2``. A realisation's
    bindings share all but two values with the record's, so the identity
    test settles most at once."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_json, a, b))
    if type(a) is dict:
        return a.keys() == b.keys() and all(map(_same_json, a.values(), map(b.get, a)))
    return a == b
