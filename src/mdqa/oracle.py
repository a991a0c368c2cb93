"""Deterministic rule-based chat backend for tests and reproducible sessions.

The oracle answers the four prompt shapes the pipelines produce (plan
generation, value extraction, query expansion, direct answering) from the
generation-time fact table. Extraction correctness is contingent on
retrieval, exactly as in the real pipeline: in ``perfect`` mode a fact is
extractable only when one of its source pages was actually given; in
``textual`` mode the extractor also falls back to whatever same-metric page
it was shown, which reproduces the classic wrong-fiscal-year retrieval
failure.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .backends import BackendError, CallLedger, tokenize
from .corpus import FactRecord, FactTable, parse_formula
from .questiongen import (
    MissingFactError,
    Question,
    compound_lookup,
    evaluate_rule,
)

_YEAR_RE = re.compile(r"\b(?:19|20)\d{2}\b")
_PAGE_REF_RE = re.compile(r"\[page ([^\s#\]]+)#(\d+)\]")


def _stem(token: str) -> str:
    if len(token) > 3 and token.endswith("s") and not token.endswith("ss"):
        return token[:-1]
    return token


def _stemmed(text: str) -> set[str]:
    return {_stem(t) for t in tokenize(text)}


def _fmt_plain(value: float) -> str:
    text = f"{value:.10f}".rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def _fmt_fact(rec: FactRecord) -> str:
    value = rec.value
    if float(value).is_integer():
        return f"{int(value)} {rec.multiplier}"
    return f"{value!r} {rec.multiplier}"


class OracleChatBackend:
    """Pure function of (request, injected state); fully deterministic.

    ``questions`` seeds the registry used for plan generation, expansion, and
    direct answering; extraction needs only the fact table. ``metric_aliases``
    maps metric_id to extra phrases a question may use for the metric, on top
    of its display name.
    """

    def __init__(
        self,
        fact_table: FactTable,
        dataset_year: int,
        questions: Optional[Iterable[Question]] = None,
        mode: str = "perfect",
        metric_aliases: Optional[dict[str, list[str]]] = None,
        ledger: Optional[CallLedger] = None,
    ):
        if mode not in ("perfect", "textual"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        self.fact_table = fact_table
        self.dataset_year = dataset_year
        self.mode = mode
        self.ledger = ledger
        self.call_count = 0
        self._questions: list[Question] = sorted(
            questions or [], key=lambda q: -len(q.text)
        )
        self._aliases: list[tuple[str, frozenset[str], int]] = []
        for metric in fact_table.metric_defs:
            phrases = [metric.display_name]
            phrases.extend((metric_aliases or {}).get(metric.metric_id, []))
            for phrase in phrases:
                tokens = frozenset(_stemmed(phrase))
                if tokens:
                    self._aliases.append((metric.metric_id, tokens, len(tokens)))
        # Longer alias phrases win; ties break on metric_id for determinism.
        self._aliases.sort(key=lambda a: (-a[2], a[0]))

    def register(self, questions: Iterable[Question]) -> None:
        self._questions.extend(questions)
        self._questions.sort(key=lambda q: -len(q.text))

    # -- entry point --------------------------------------------------------

    def chat(self, messages: list[dict], **params) -> str:
        self.call_count += 1
        if self.ledger:
            self.ledger.record_chat()
        system = "\n".join(m["content"] for m in messages if m["role"] == "system")
        user = "\n".join(m["content"] for m in messages if m["role"] == "user")
        if "Value query:" in user:
            return self._extract_reply(user)
        if "alternative search queries" in user:
            return self._expand_reply(user)
        if "Plan program:" in user:
            return self._plan_reply(user, with_select="select_documents(" in system)
        if "Final answer:" in user:
            return self._answer_reply(user)
        raise BackendError("oracle does not recognize this prompt shape")

    # -- shared resolution ---------------------------------------------------

    def _find_question(self, text: str) -> Optional[Question]:
        for q in self._questions:
            if q.text in text:
                return q
        return None

    def _resolve_company(self, query: str) -> Optional[str]:
        hits: list[tuple[int, str]] = []
        for name, sym in self.fact_table.companies:
            m = re.search(rf"\b{re.escape(sym)}\b", query)
            if m:
                hits.append((m.start(), sym))
        if not hits:
            lowered = query.lower()
            for name, sym in self.fact_table.companies:
                pos = lowered.find(name.lower())
                if pos >= 0:
                    hits.append((pos, sym))
        if not hits:
            return None
        hits.sort()
        return hits[0][1]

    def _resolve_metric(self, query: str) -> Optional[str]:
        query_tokens = _stemmed(query)
        for metric_id, tokens, _ in self._aliases:
            if tokens <= query_tokens:
                return metric_id
        return None

    def _resolve_year(self, query: str) -> int:
        m = _YEAR_RE.search(query)
        return int(m.group()) if m else self.dataset_year

    @staticmethod
    def _page_refs(text: str) -> list[tuple[str, int]]:
        return [(doc, int(num)) for doc, num in _PAGE_REF_RE.findall(text)]

    # -- extraction ----------------------------------------------------------

    def _extract_reply(self, user: str) -> str:
        m = re.search(r"Value query:\s*(.+)", user)
        query = m.group(1).strip() if m else ""
        refs = self._page_refs(user)
        symbol = self._resolve_company(query)
        metric_id = self._resolve_metric(query)
        if symbol is None or metric_id is None:
            return "not found"
        year = self._resolve_year(query)
        rec = self.fact_table.get(symbol, year, metric_id)
        ref_set = set(refs)
        if rec is not None and ref_set & {
            (rec.source_doc_id, p) for p in rec.source_pages
        }:
            return _fmt_fact(rec)
        if self.mode == "textual":
            # The extractor grabs whatever same-metric figure the pages show,
            # year mismatch and all.
            candidates = {
                (r.source_doc_id, p): r
                for r in self.fact_table.records
                if r.stock_symbol == symbol and r.metric_id == metric_id
                for p in r.source_pages
            }
            for ref in refs:
                if ref in candidates:
                    return _fmt_fact(candidates[ref])
        return "not found"

    # -- query expansion -----------------------------------------------------

    def _expand_reply(self, user: str) -> str:
        question = self._find_question(user)
        if question is None:
            return ""
        b = question.bindings
        rule = _RULE_BY_TEMPLATE.get(question.template_id)
        lines: list[str] = []

        def alt(symbol: str, metric_id: str, year: int) -> str:
            name = self.fact_table.company_name(symbol)
            display = self.fact_table.metric(metric_id).display_name
            return f"What is the {display} of {name} in {year}?"

        year = b.get("year", question.dataset_year)
        if rule == "sum_over_years":
            years = range(question.dataset_year, question.dataset_year - b["num_year"], -1)
            lines = [alt(b["symbol"], b["metric"], y) for y in years]
        elif rule == "overall_growth":
            lines = [
                alt(b["symbol"], b["metric"], question.dataset_year),
                alt(b["symbol"], b["metric"], question.dataset_year - b["num_year"]),
            ]
        elif rule == "pct_difference":
            lines = [
                alt(b["symbol1"], b["metric"], year),
                alt(b["symbol2"], b["metric"], year),
            ]
        elif rule == "extreme_lookup":
            lines = [alt(sym, b["metric1"], year) for sym in b["symbols"]]
        elif rule == "multi_value":
            lines = [
                alt(b["symbol"], b["metric1"], year),
                alt(b["symbol"], b["metric2"], year),
            ]
        elif rule is not None:
            lines = [alt(b["symbol"], b["metric"], year)]
        return "\n".join(lines)

    # -- plan generation -----------------------------------------------------

    def _plan_reply(self, user: str, with_select: bool) -> str:
        question = self._find_question(user)
        if question is None:
            raise BackendError("oracle has no registered question matching the prompt")
        return build_canonical_plan(
            question, self.fact_table, with_select=with_select
        )

    # -- direct answering ----------------------------------------------------

    def _answer_reply(self, user: str) -> str:
        question = self._find_question(user)
        if question is None:
            raise BackendError("oracle has no registered question matching the prompt")
        ranked_refs = []
        for ref in self._page_refs(user):
            if ref not in ranked_refs:
                ranked_refs.append(ref)
        ref_set = set(ranked_refs)
        rule = _RULE_BY_TEMPLATE[question.template_id]
        from .questiongen import compute_gold_with_provenance

        _, needed = compute_gold_with_provenance(
            rule, dict(question.bindings), self.fact_table, question.dataset_year
        )
        substitutes: dict[tuple[str, str, int], float] = {}
        for rec in needed:
            key = (rec.stock_symbol, rec.metric_id, rec.fiscal_year)
            own_pages = {(rec.source_doc_id, p) for p in rec.source_pages}
            if own_pages & ref_set:
                substitutes[key] = rec.normalized
                continue
            if self.mode == "textual":
                found = self._textual_substitute(rec, ranked_refs)
                if found is not None:
                    substitutes[key] = found
        if len(substitutes) < len(
            {(r.stock_symbol, r.metric_id, r.fiscal_year) for r in needed}
        ):
            # Some required figure is simply not in the provided pages.
            return "0"

        def substitute(symbol: str, metric_id: str, year: int) -> float:
            key = (symbol, metric_id, year)
            if key not in substitutes:
                raise MissingFactError(f"no substitute for {key}")
            return substitutes[key]

        answer = evaluate_rule(
            rule,
            dict(question.bindings),
            compound_lookup(self.fact_table, substitute),
            question.dataset_year,
            metric_display=lambda mid: self.fact_table.metric(mid).display_name,
        )
        if answer.kind == "number":
            return _fmt_plain(answer.number)
        if answer.kind == "yesno":
            return answer.label
        return "\n".join(f"{label}: {_fmt_plain(v)}" for label, v in answer.parts)

    def _textual_substitute(
        self, rec: FactRecord, ranked_refs: list[tuple[str, int]]
    ) -> Optional[float]:
        # Scan pages in the order the prompt presented them: the extractor
        # reads top-ranked pages first.
        candidates = {}
        for r in self.fact_table.records:
            if r.stock_symbol == rec.stock_symbol and r.metric_id == rec.metric_id:
                for p in r.source_pages:
                    candidates[(r.source_doc_id, p)] = r
        for ref in ranked_refs:
            if ref in candidates:
                return candidates[ref].normalized
        return None


_RULE_BY_TEMPLATE = {
    "ve1": "single_value",
    "ve2": "single_value",
    "cve1": "compound_value",
    "cve2": "compound_value",
    "md1": "sum_over_years",
    "md2": "pct_difference",
    "md3": "overall_growth",
    "md4": "extreme_lookup",
    "md4_lowest": "extreme_lookup",
    "yn1": "yes_if_positive",
    "mo1": "multi_value",
}


# ---------------------------------------------------------------------------
# Canonical plans
# ---------------------------------------------------------------------------


def _atomic_question(fact_table: FactTable, symbol: str, metric_id: str, year) -> str:
    name = fact_table.company_name(symbol)
    display = fact_table.metric(metric_id).display_name
    return f"What is the {display} of {name} ({symbol}) in {year} in US dollars?"


def _fetch_block(
    fact_table: FactTable,
    symbol: str,
    metric_id: str,
    year,
    var: str,
    with_select: bool,
    q_var: str = "question",
    year_literal: Optional[str] = None,
) -> list[str]:
    """Plan lines retrieving pages and extracting one value into ``var``.

    ``year_literal`` substitutes a plan variable name for the year, for use
    inside loops; otherwise the concrete year is inlined.
    """
    year_text = f"{{{year_literal}}}" if year_literal else str(year)
    year_expr = year_literal if year_literal else str(year)
    question = _atomic_question(fact_table, symbol, metric_id, year_text)
    lines = [f'{q_var} = "{question}"']
    if with_select:
        lines.append(
            f'documents = select_documents(stock_symbols=["{symbol}"], '
            f'form_types=["10-K"], fiscal_years=[{year_expr}])'
        )
        lines.append(f"pages = retrieve_relevant_pages({q_var}, documents)")
    else:
        lines.append(f"pages = retrieve_relevant_pages({q_var})")
    lines.append(f"{var} = extract_value({q_var}, pages)")
    return lines


def build_canonical_plan(
    question: Question, fact_table: FactTable, with_select: bool = True
) -> str:
    """The reference plan for a generated question's template and bindings."""
    b = question.bindings
    template_id = question.template_id
    year = b.get("year", question.dataset_year)
    lines: list[str] = []

    if template_id in ("ve1", "ve2"):
        lines += _fetch_block(fact_table, b["symbol"], b["metric"], year, "value", with_select)
        lines.append("emit(float(value))")

    elif template_id in ("cve1", "cve2"):
        metric = fact_table.metric(b["metric"])
        node = parse_formula(metric.formula)
        leaves: list[str] = []

        def expand(n) -> str:
            if n[0] == "num":
                return repr(n[1])
            if n[0] == "ref":
                sub_metric = fact_table.metric(n[1])
                if sub_metric.kind == "compound":
                    return f"({expand(parse_formula(sub_metric.formula))})"
                if n[1] not in leaves:
                    leaves.append(n[1])
                return f"v_{n[1]}"
            return f"({expand(n[2])} {n[1]} {expand(n[3])})"

        expr = expand(node)
        for leaf in leaves:
            lines += _fetch_block(
                fact_table, b["symbol"], leaf, year, f"v_{leaf}", with_select,
                q_var=f"question_{leaf}",
            )
        lines.append(f"emit({expr})")

    elif template_id == "md1":
        start = question.dataset_year
        stop = question.dataset_year - b["num_year"]
        lines.append("values = []")
        lines.append(f"for year in range({start}, {stop}, -1):")
        inner = _fetch_block(
            fact_table, b["symbol"], b["metric"], None, "value", with_select,
            year_literal="year",
        )
        lines += [f"  {l}" for l in inner]
        lines.append("  append(values, float(value))")
        lines.append("emit(sum(values))")

    elif template_id == "md2":
        lines += _fetch_block(
            fact_table, b["symbol1"], b["metric"], year, "value_a", with_select,
            q_var="question_a",
        )
        lines += _fetch_block(
            fact_table, b["symbol2"], b["metric"], year, "value_b", with_select,
            q_var="question_b",
        )
        lines.append("emit((value_a - value_b) / value_b * 100.0)")

    elif template_id == "md3":
        base_year = question.dataset_year - b["num_year"]
        lines += _fetch_block(
            fact_table, b["symbol"], b["metric"], question.dataset_year, "value_current",
            with_select, q_var="question_current",
        )
        lines += _fetch_block(
            fact_table, b["symbol"], b["metric"], base_year, "value_base",
            with_select, q_var="question_base",
        )
        lines.append("emit((value_current - value_base) / value_base * 100.0)")

    elif template_id in ("md4", "md4_lowest"):
        symbols = list(b["symbols"])
        names = [fact_table.company_name(s) for s in symbols]
        pick = "argmin" if b.get("extreme") == "lowest" else "argmax"
        m1_display = fact_table.metric(b["metric1"]).display_name
        m2_display = fact_table.metric(b["metric2"]).display_name
        lines.append("companies = [" + ", ".join(f'"{n}"' for n in names) + "]")
        lines.append("stock_symbols = [" + ", ".join(f'"{s}"' for s in symbols) + "]")
        lines.append("values = {}")
        lines.append("names = {}")
        lines.append("for company, symbol in zip(companies, stock_symbols):")
        lines.append(
            f'  question_a = "What is the {m1_display} of {{company}} ({{symbol}}) '
            f'in {year} in US dollars?"'
        )
        if with_select:
            lines.append(
                "  documents = select_documents(stock_symbols=[symbol], "
                f'form_types=["10-K"], fiscal_years=[{year}])'
            )
            lines.append("  pages = retrieve_relevant_pages(question_a, documents)")
        else:
            lines.append("  pages = retrieve_relevant_pages(question_a)")
        lines.append("  values[symbol] = float(extract_value(question_a, pages))")
        lines.append("  names[symbol] = company")
        lines.append(f"winner = {pick}(values)")
        lines.append("winner_name = names[winner]")
        lines.append(
            f'question_b = "What is the {m2_display} of {{winner_name}} ({{winner}}) '
            f'in {year} in US dollars?"'
        )
        if with_select:
            lines.append(
                "documents = select_documents(stock_symbols=[winner], "
                f'form_types=["10-K"], fiscal_years=[{year}])'
            )
            lines.append("pages = retrieve_relevant_pages(question_b, documents)")
        else:
            lines.append("pages = retrieve_relevant_pages(question_b)")
        lines.append("emit(float(extract_value(question_b, pages)))")

    elif template_id == "yn1":
        lines += _fetch_block(fact_table, b["symbol"], b["metric"], year, "value", with_select)
        lines.append('answer = "No"')
        lines.append('if value == "Yes":')
        lines.append('  answer = "Yes"')
        lines.append('elif value == "No":')
        lines.append('  answer = "No"')
        lines.append("else:")
        lines.append("  amount = float(value)")
        lines.append("  if amount > 0:")
        lines.append('    answer = "Yes"')
        lines.append("emit(answer)")

    elif template_id == "mo1":
        d1 = fact_table.metric(b["metric1"]).display_name
        d2 = fact_table.metric(b["metric2"]).display_name
        lines += _fetch_block(
            fact_table, b["symbol"], b["metric1"], year, "value_one", with_select,
            q_var="question_one",
        )
        lines += _fetch_block(
            fact_table, b["symbol"], b["metric2"], year, "value_two", with_select,
            q_var="question_two",
        )
        lines.append(f'emit({{"{d1}": float(value_one), "{d2}": float(value_two)}})')

    else:
        raise BackendError(f"oracle has no canonical plan for template {template_id!r}")

    return "\n".join(lines) + "\n"
