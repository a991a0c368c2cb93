from __future__ import annotations

import ast
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdqa.planlang import (
    ExecEnv,
    PageHandle,
    PlanParseError,
    PlanRuntimeError,
    execute_plan,
    parse_plan,
)
from mdqa.planlang import interpreter
from mdqa.planlang.interpreter import digest_value
from mdqa.planlang.parser import BUILTIN_NAMES, MAX_NESTING


def run(source: str, **env_kwargs):
    return execute_plan(parse_plan(source), ExecEnv(**env_kwargs))


@pytest.fixture()
def budgets(monkeypatch):
    """Set the interpreter's step and builtin budgets for one test."""

    def set_budgets(step=interpreter.STEP_BUDGET, builtin=interpreter.BUILTIN_BUDGET):
        monkeypatch.setattr(interpreter, "STEP_BUDGET", step)
        monkeypatch.setattr(interpreter, "BUILTIN_BUDGET", builtin)

    return set_budgets


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_single_statement():
    program = parse_plan("emit(42)")
    assert len(program.body) == 1
    stmt = program.body[0]
    assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
    assert stmt.value.func.id == "emit"


def test_parse_rejects_non_whitelisted_callable():
    with pytest.raises(PlanParseError, match="non-whitelisted.*open"):
        parse_plan('f = open("x.txt")')


def test_parse_rejects_dunder_import():
    with pytest.raises(PlanParseError):
        parse_plan('__import__("os")')


def test_parse_error_carries_line_and_column():
    with pytest.raises(PlanParseError) as exc_info:
        parse_plan("x = 1\ny = ((2\nemit(x)")
    assert exc_info.value.line == 2


def test_parse_empty_source():
    with pytest.raises(PlanParseError):
        parse_plan("")
    with pytest.raises(PlanParseError):
        parse_plan("   \n# just a comment\n")


def test_parse_memoises_programs_by_source():
    source = "x = 2\nemit(x * 21)\n"
    first = parse_plan(source)
    assert parse_plan(source) is first
    assert parse_plan(source + "\n") is not first
    assert run(source).emitted == 42.0
    assert 0 < parse_plan.cache_info().maxsize <= 64


def test_parse_error_raised_on_every_call():
    misses = parse_plan.cache_info().misses
    for _ in range(3):
        with pytest.raises(PlanParseError, match="line 2"):
            parse_plan("x = 1\ny = ((2\n")
    # Each call parsed again: errors are never served from the memo.
    assert parse_plan.cache_info().misses == misses + 3


def test_parse_comments_and_blank_lines():
    program = parse_plan("# leading comment\n\nx = 1  # trailing\n\nemit(x)\n")
    assert len(program.body) == 2


def test_parse_lowest_debt_program_shape():
    source = LOWEST_DEBT_PLAN
    program = parse_plan(source)
    fors = [s for s in program.body if isinstance(s, ast.For)]
    assert len(fors) == 1
    loop = fors[0]
    assert [name.id for name in loop.target.elts] == ["company", "symbol"]
    assert isinstance(loop.iter, ast.Call) and loop.iter.func.id == "zip"
    map_assigns = [
        s for s in program.body if isinstance(s, ast.Assign) and isinstance(s.value, ast.Dict)
    ]
    assert len(map_assigns) == 2
    calls = [node.func.id for node in ast.walk(program) if isinstance(node, ast.Call)]
    assert "argmin" in calls
    last = program.body[-1]
    assert isinstance(last, ast.Expr) and last.value.func.id == "emit"


# ---------------------------------------------------------------------------
# Pure execution
# ---------------------------------------------------------------------------


def test_execute_arithmetic_emit():
    trace = run("emit(1 + 2 * 3)")
    assert trace.emitted == 7.0
    assert trace.completed
    assert trace.builtin_calls == []  # emit is the sink, not a recorded call


def test_operator_precedence_and_parens():
    assert run("emit((1 + 2) * 3)").emitted == 9.0
    assert run("emit(10 - 2 - 3)").emitted == 5.0
    assert run("emit(-2 * 3)").emitted == -6.0


def test_variables_and_strings():
    trace = run('year = 2023\nq = "value in {year} dollars"\nemit(q)')
    assert trace.emitted == "value in 2023 dollars"


def test_string_interpolation_undeclared_name_is_runtime_error():
    program = parse_plan('q = "value in {nope}"\nemit(q)')
    with pytest.raises(PlanRuntimeError) as exc_info:
        execute_plan(program, ExecEnv())
    assert exc_info.value.kind == "undefined_name"


def test_brace_escaping():
    assert run('emit("literal {{braces}}")').emitted == "literal {braces}"


def test_lists_maps_subscripts():
    source = (
        "xs = [10, 20, 30]\n"
        "m = {}\n"
        'm["a"] = xs[1]\n'
        'emit(m["a"] + xs[0])'
    )
    assert run(source).emitted == 30.0


def test_for_loop_and_append():
    source = (
        "out = []\n"
        "for x in [1, 2, 3]:\n"
        "  append(out, x * 2)\n"
        "emit(sum(out))"
    )
    assert run(source).emitted == 12.0


def test_for_loop_multi_target_zip():
    source = (
        "pairs = zip([1, 2], [10, 20])\n"
        "total = 0\n"
        "for a, b in pairs:\n"
        "  total = total + a * b\n"
        "emit(total)"
    )
    assert run(source).emitted == 50.0


def test_range_descending():
    assert run("emit(range(2023, 2020, -1))").emitted == [2023.0, 2022.0, 2021.0]


def test_if_elif_else():
    source = (
        "x = 5\n"
        "if x > 10:\n"
        '  label = "big"\n'
        "elif x > 3:\n"
        '  label = "medium"\n'
        "else:\n"
        '  label = "small"\n'
        "emit(label)"
    )
    assert run(source).emitted == "medium"


def test_argmin_argmax_and_ties():
    assert run('emit(argmin({"b": 2, "a": 5}))').emitted == "b"
    assert run('emit(argmax({"b": 2, "a": 5}))').emitted == "a"
    # Ties break to the smallest key.
    assert run('emit(argmin({"b": 1, "a": 1}))').emitted == "a"


def test_min_max_abs_len_float_str():
    assert run("emit(min([3, 1, 2]))").emitted == 1.0
    assert run("emit(max(3, 9))").emitted == 9.0
    assert run("emit(abs(0 - 4))").emitted == 4.0
    assert run('emit(len("abcd"))').emitted == 4.0
    assert run('emit(float("1,234.5"))').emitted == 1234.5
    assert run("emit(str(2023))").emitted == "2023"
    assert run("emit(str(1.5))").emitted == "1.5"


def test_comparisons():
    assert run('emit(1 < 2)').emitted is True
    assert run('emit("a" == "a")').emitted is True
    # Cross-type equality is just False, not an error.
    assert run('emit(1 == "a")').emitted is False


# ---------------------------------------------------------------------------
# Errors and budgets
# ---------------------------------------------------------------------------


def test_runtime_type_error_on_list_arithmetic():
    with pytest.raises(PlanRuntimeError) as exc_info:
        run("emit([1] + 2)")
    assert exc_info.value.kind == "type_error"


def test_division_by_zero():
    with pytest.raises(PlanRuntimeError) as exc_info:
        run("emit(1 / 0)")
    assert exc_info.value.kind == "division_by_zero"


def test_no_emit_signals_no_answer():
    with pytest.raises(PlanRuntimeError) as exc_info:
        run("x = 1")
    assert exc_info.value.kind == "no_answer"


def test_step_budget_halts_runaway_loop():
    source = (
        "total = 0\n"
        "for i in range(0, 1000000):\n"
        "  total = total + 1\n"
        "emit(total)"
    )
    assert interpreter.STEP_BUDGET == 10_000
    with pytest.raises(PlanRuntimeError) as exc_info:
        run(source)
    assert exc_info.value.kind == "step_budget_exceeded"
    assert exc_info.value.trace.step_count <= 10_001
    assert exc_info.value.trace.emitted is None  # partial trace retained


def test_nested_loop_budget_mid_flight(budgets):
    source = (
        "total = 0\n"
        "for i in range(0, 200):\n"
        "  for j in range(0, 200):\n"
        "    total = total + 1\n"
        "emit(total)"
    )
    budgets(step=5_000)
    with pytest.raises(PlanRuntimeError) as exc_info:
        run(source)
    assert exc_info.value.kind == "step_budget_exceeded"
    assert exc_info.value.trace.step_count > 0


def test_builtin_budget(budgets):
    source = (
        "for i in range(0, 50):\n"
        "  x = len(\"ab\")\n"
        "emit(1)"
    )
    budgets(builtin=10)
    with pytest.raises(PlanRuntimeError) as exc_info:
        run(source)
    assert exc_info.value.kind == "builtin_budget_exceeded"


def _doubling_plan(n: int) -> str:
    return f's = "a"\nfor i in range({n}):\n  s = s + s\nemit(s)'


def test_size_budget_stops_a_string_doubled_in_a_loop():
    """26 doublings pass the step and builtin budgets and would make a 64 MB
    string; the size budget stops the plan before the string it cannot
    afford is made."""
    with pytest.raises(PlanRuntimeError) as exc_info:
        run(_doubling_plan(26))
    assert exc_info.value.kind == "size_budget_exceeded"
    assert exc_info.value.trace.step_count < 200


@pytest.mark.parametrize(
    "source, chars",
    [
        (_doubling_plan(3), 1 + 2 + 4 + 8),  # the literal, then three `+`
        ('x = "ab"\nemit("{x}-{x}")', 2 + 5),
    ],
)
def test_size_budget_counts_the_characters_built(monkeypatch, source, chars):
    monkeypatch.setattr(interpreter, "SIZE_BUDGET", chars)
    assert run(source).emitted
    monkeypatch.setattr(interpreter, "SIZE_BUDGET", chars - 1)
    with pytest.raises(PlanRuntimeError) as exc_info:
        run(source)
    assert exc_info.value.kind == "size_budget_exceeded"


def test_budget_monotonicity(budgets):
    source = (
        "out = []\n"
        "for x in range(0, 10):\n"
        "  append(out, x)\n"
        "emit(sum(out))"
    )
    budgets(step=500, builtin=20)
    small = run(source)
    budgets(step=50_000, builtin=64)
    large = run(source)
    assert small.emitted == large.emitted == 45.0
    assert small.builtin_calls == large.builtin_calls


def test_determinism():
    source = 'm = {}\nm["k"] = 1\nfor x in [1, 2]:\n  m["k"] = m["k"] * 2\nemit(m["k"])'
    a = run(source)
    b = run(source)
    assert a.emitted == b.emitted
    assert a.to_json_dict() == b.to_json_dict()


def test_select_documents_gated_by_variant():
    """The page-only system leaves ``select_fn`` out."""
    program = parse_plan('docs = select_documents(stock_symbols=["KO"])\nemit(1)')
    env = ExecEnv(retrieve_fn=lambda question, documents: [], extract_fn=lambda q, p: 1.0)
    with pytest.raises(PlanRuntimeError) as exc_info:
        execute_plan(program, env)
    assert str(exc_info.value) == (
        "builtin_unavailable: select_documents is not available to this system"
    )


@pytest.mark.parametrize("call", ["retrieve_relevant_pages(1)", 'extract_value("q", 2)'])
def test_an_effect_left_out_is_unavailable(call):
    """An effect left ``None`` fails before its arguments are checked."""
    with pytest.raises(PlanRuntimeError) as exc_info:
        run(f"x = {call}\nemit(1)")
    name = call.partition("(")[0]
    assert str(exc_info.value) == (
        f"builtin_unavailable: {name} is not available to this system"
    )


@pytest.mark.parametrize("keyword", ["name", "self"])
def test_an_effects_keyword_may_be_any_name(keyword):
    """Keywords reach the injected effect as they are, so a keyword the
    interpreter's own helper also names is the effect's error, not Python's."""

    def select_fn(stock_symbols=None):
        return []

    with pytest.raises(PlanRuntimeError) as exc_info:
        run(f"x = select_documents({keyword}=1)\nemit(1)", select_fn=select_fn)
    assert exc_info.value.kind == "value_error"
    assert f"unexpected keyword argument '{keyword}'" in str(exc_info.value)


# ---------------------------------------------------------------------------
# Effectful builtins against injected helpers
# ---------------------------------------------------------------------------


class _World:
    """Tiny in-memory stand-in for the corpus/retrieval/extraction stack."""

    def __init__(self, facts):
        # facts: {(symbol, year): value}
        self.facts = facts
        self.extract_calls = 0

    def select_fn(self, companies=None, stock_symbols=None, form_types=None,
                  fiscal_years=None, **_):
        class Doc:
            def __init__(self, doc_id):
                self.doc_id = doc_id

        symbol = (stock_symbols or ["?"])[0]
        years = fiscal_years or []
        return [Doc(f"{symbol.lower()}-{int(y)}") for y in years]

    def retrieve_fn(self, question, documents):
        docs = documents or []
        return [
            PageHandle(doc.doc_id, 1, "page", f"content for {doc.doc_id}")
            for doc in docs
        ]

    def extract_fn(self, question, pages):
        self.extract_calls += 1
        import re

        year = int(re.search(r"(19|20)\d{2}", question).group())
        symbol = re.search(r"\(([A-Z]+)\)", question)
        key = (symbol.group(1) if symbol else "NFLX", year)
        return self.facts[key]


def _env(world, **kwargs):
    return ExecEnv(
        select_fn=world.select_fn,
        retrieve_fn=world.retrieve_fn,
        extract_fn=world.extract_fn,
        **kwargs,
    )


SUM_RETURNS_PLAN = """\
this_year = 2023
returned_values = []
for year in range(this_year, this_year - 3, -1):
  question = "How much did Netflix (NFLX) return to the investors in {year} in USD?"
  documents = select_documents(companies=["Netflix"], stock_symbols=["NFLX"], form_types=["10-K"], fiscal_years=[year])
  pages = retrieve_relevant_pages(question, documents)
  return_in_us_dollars = extract_value(question, pages)
  append(returned_values, float(return_in_us_dollars))
total_return = sum(returned_values)
emit(total_return)
"""


def test_sum_over_years_plan_against_injected_facts():
    world = _World({("NFLX", 2021): 1.0e9, ("NFLX", 2022): 2.0e9, ("NFLX", 2023): 3.0e9})
    trace = execute_plan(parse_plan(SUM_RETURNS_PLAN), _env(world))
    assert trace.emitted == pytest.approx(6.0e9)
    assert world.extract_calls == 3
    assert list(trace.selected_docs) == ["nflx-2023", "nflx-2022", "nflx-2021"]
    assert set(trace.retrieved_pages) == {
        ("nflx-2023", 1), ("nflx-2022", 1), ("nflx-2021", 1)
    }


LOWEST_DEBT_PLAN = """\
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


def test_lowest_debt_plan_emits_winner_revenue():
    facts = {
        ("HON", 2023): 30.2e9,
        ("CAT", 2023): 37.9e9,
        ("PFE", 2023): 3.1e9,
        ("PEP", 2023): 44.1e9,
        ("BA", 2023): 57.6e9,
    }

    class DebtThenRevenue(_World):
        def extract_fn(self, question, pages):
            self.extract_calls += 1
            import re

            symbol = re.search(r"\(([A-Z]+)\)", question).group(1)
            if "total debt" in question:
                return facts[(symbol, 2023)]
            assert "total revenues" in question
            assert symbol == "PFE"  # brute-force argmin of the fact dict
            return 58.5e9

    world = DebtThenRevenue({})
    trace = execute_plan(parse_plan(LOWEST_DEBT_PLAN), _env(world))
    brute_force_winner = min(sorted(facts), key=lambda key: (facts[key], key))[0]
    assert brute_force_winner == "PFE"
    assert trace.emitted == pytest.approx(5.85e10)
    assert world.extract_calls == 6  # five debt extractions plus one revenue


def test_extraction_failure_keeps_trace():
    class Failing(_World):
        def extract_fn(self, question, pages):
            raise RuntimeError("nothing here")

    world = Failing({})
    program = parse_plan(SUM_RETURNS_PLAN)
    with pytest.raises(PlanRuntimeError) as exc_info:
        execute_plan(program, _env(world))
    assert exc_info.value.kind == "extraction_failed"
    assert exc_info.value.trace.selected_docs  # partial trace survived


def test_trace_accounts_for_every_backend_call():
    world = _World({("NFLX", y): float(y) for y in (2021, 2022, 2023)})
    trace = execute_plan(parse_plan(SUM_RETURNS_PLAN), _env(world))
    recorded = [name for name, _, _ in trace.builtin_calls]
    assert recorded.count("extract_value") == world.extract_calls
    assert recorded.count("select_documents") == 3
    assert recorded.count("retrieve_relevant_pages") == 3


# ---------------------------------------------------------------------------
# Nesting: bounded where it is parsed, so no recursion exhausts the stack
# ---------------------------------------------------------------------------

# Plan source nesting ``n`` levels, one way to nest per entry. ``x[0]`` is
# ``x`` itself, so a chain of subscripts of any length runs.
_NESTINGS = {
    "parentheses": lambda n: "emit(" + "(" * n + "1" + ")" * n + ")",
    "unary-minus": lambda n: "emit(" + "-" * n + "1)",
    "lists": lambda n: "emit(len(" + "[" * n + "]" * n + "))",
    "maps": lambda n: "emit(len(" + '{"a": ' * n + "1" + "}" * n + "))",
    "calls": lambda n: "emit(" + "abs(" * n + "1" + ")" * n + ")",
    "operators": lambda n: "emit(" + " + ".join(["1"] * n) + ")",
    "subscripts": lambda n: "x = []\nappend(x, x)\nemit(len(x" + "[0]" * n + "))",
    "blocks": lambda n: "".join(" " * i + "if True:\n" for i in range(n)) + " " * n + "emit(1)",
}


def _parses(source: str) -> bool:
    try:
        parse_plan.__wrapped__(source)  # past the memo
    except PlanParseError:
        return False
    return True


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("build", _NESTINGS.values(), ids=_NESTINGS)
def test_deepest_accepted_plan_runs_in_a_bounded_stack(build):
    """Each way to nest stops near ``MAX_NESTING`` levels with a
    ``PlanParseError`` naming line and column. The deepest plan accepted
    parses and runs in 600 stack frames, well inside Python's default
    recursion limit of 1,000."""
    n = next(n for n in range(MAX_NESTING, 0, -1) if _parses(build(n)))
    assert n >= MAX_NESTING - 3
    message = rf"^line \d+, col \d+: plan nests deeper than {MAX_NESTING} levels$"
    with pytest.raises(PlanParseError, match=message):
        parse_plan(build(n + 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 600)
    try:
        trace = execute_plan(parse_plan.__wrapped__(build(n)), ExecEnv())
    finally:
        sys.setrecursionlimit(limit)
    assert trace.completed


@pytest.mark.parametrize("links", ["+ 1", "[0]"], ids=["operators", "subscripts"])
def test_chain_of_10_000_links_is_a_parse_error(links):
    """The parser reads a chain of operators or subscripts in a loop, but the
    tree it builds grows a level per link, and the interpreter recurses once
    per level."""
    # Python 3.10's parser builds the chain and the checker stops it; later
    # parsers run out of stack first.
    with pytest.raises(PlanParseError, match="plan nests deeper than|nests too deeply for Python"):
        parse_plan("x = [1]\nemit(x" + links * 10**4 + ")")


def test_comparing_lists_that_hold_themselves_is_a_runtime_error():
    with pytest.raises(PlanRuntimeError, match="^value_error: values nest too deeply"):
        run("x = []\nappend(x, x)\ny = []\nappend(y, y)\nemit(x == y)")


# ---------------------------------------------------------------------------
# Fuzzing: the sandbox raises nothing but its two error types
# ---------------------------------------------------------------------------

_FUZZ_NAMES = ["x", "y", "docs", "pages", "v"]
# Near-miss plan text: the language's own tokens in random order.
_FUZZ_TOKENS = sorted(BUILTIN_NAMES) + _FUZZ_NAMES + [
    "for", "in", "if", "elif", "else", "True", "False", "None", "1", "2.5e3", "-",
    '"a{x}"', "'{{'", '"\\', "#", " ", "  ", "\t", "\n", "\n  ",
    *"+-*/=<>()[]{},:", "==", "!=", "<=", ">=",
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=80), st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=30).map("".join)))
# 10,000 levels of each way to nest, and of blocks 1,000: the source of
# nested blocks grows with the square of their depth.
@example("emit(" + "(" * 10**4)
@example("-" * 10**4 + "1")
@example("[" * 10**4)
@example('{"a": ' * 10**4)
@example("emit(" + "abs(" * 10**4)
@example("".join(" " * i + "if 1:\n" for i in range(10**3)))
def test_parse_random_text_raises_only_parse_errors(source):
    try:
        parse_plan(source)
    except PlanParseError:
        pass


def _expressions():
    leaves = st.one_of(
        st.integers(-3, 3).map(str),
        st.sampled_from(["0.5", "1e3", "True", "False", "None", '""', '"a{x}b"', '"{nope}"']),
        st.sampled_from(_FUZZ_NAMES),
    )

    def extend(inner):
        args = st.lists(inner, max_size=3).map(", ".join)
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "==", "<", ">="]), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            inner.map(lambda e: f"-{e}"),
            st.tuples(inner, inner).map(lambda t: f"{t[0]}[{t[1]}]"),
            args.map(lambda a: f"[{a}]"),
            st.lists(st.tuples(inner, inner), max_size=2).map(
                lambda kv: "{" + ", ".join(f"{k}: {v}" for k, v in kv) + "}"
            ),
            st.tuples(st.sampled_from(sorted(BUILTIN_NAMES - {"emit"})), args).map(
                lambda t: f"{t[0]}({t[1]})"
            ),
            st.tuples(inner, inner).map(
                lambda t: f"select_documents(companies={t[0]}, fiscal_years={t[1]})"
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _statements(depth: int = 0):
    expr = _expressions()
    simple = st.one_of(
        st.tuples(st.sampled_from(_FUZZ_NAMES), expr).map(lambda t: [f"{t[0]} = {t[1]}"]),
        st.tuples(st.sampled_from(_FUZZ_NAMES), expr, expr).map(
            lambda t: [f"{t[0]}[{t[1]}] = {t[2]}"]
        ),
        expr.map(lambda e: [e]),
        expr.map(lambda e: [f"emit({e})"]),
    )
    if depth >= 2:
        return simple
    block = st.lists(_statements(depth + 1), min_size=1, max_size=3).map(
        lambda stmts: ["  " + line for stmt in stmts for line in stmt]
    )
    return st.one_of(
        simple,
        st.tuples(st.sampled_from(_FUZZ_NAMES), expr, block).map(
            lambda t: [f"for {t[0]} in {t[1]}:", *t[2]]
        ),
        st.tuples(expr, block, block).map(lambda t: [f"if {t[0]}:", *t[1], "else:", *t[2]]),
    )


# Binds every name the statements use, so most programs run past line one.
_FUZZ_PRELUDE = (
    'x = 2\ny = "a"\nv = [1, 2]\n'
    "docs = select_documents(stock_symbols=[\"A\"], fiscal_years=[2023])\n"
    "pages = retrieve_relevant_pages(\"q\", docs)\n"
)
_STUB_PAGES = [PageHandle(doc_id="d1", page_number=1, title="t", content="c 2023")]


def _stub_env() -> ExecEnv:
    return ExecEnv(
        select_fn=lambda **kwargs: [SimpleNamespace(doc_id="d1")],
        retrieve_fn=lambda question, documents: list(_STUB_PAGES),
        extract_fn=lambda question, pages: 1.0,
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(_statements(), min_size=1, max_size=5))
@example([["-{}[[]]"]])  # a list as a map index: was a TypeError
def test_execute_parsed_programs_raises_only_runtime_errors(statements):
    source = _FUZZ_PRELUDE + "".join(line + "\n" for stmt in statements for line in stmt)
    try:
        program = parse_plan(source)
    except PlanParseError:
        return
    with pytest.MonkeyPatch.context() as mp:
        # Small budgets keep each example fast.
        mp.setattr(interpreter, "STEP_BUDGET", 500)
        mp.setattr(interpreter, "BUILTIN_BUDGET", 16)
        try:
            execute_plan(program, _stub_env())
        except PlanRuntimeError:
            pass


# ---------------------------------------------------------------------------
# Trace digests
# ---------------------------------------------------------------------------


def _ladder_digest(value, depth=0):
    """``digest_value`` as one isinstance ladder: the reference its exact-type
    dispatch must agree with."""
    if isinstance(value, bool):
        return "True" if value else "False"
    if value is None:
        return "None"
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        if float(value).is_integer() and abs(value) < 1e16:
            return str(int(value))
        return repr(float(value))
    if isinstance(value, str):
        return value if len(value) <= 60 else value[:57] + "..."
    if isinstance(value, PageHandle):
        return f"<page {value.doc_id}#{value.page_number}>"
    if hasattr(value, "doc_id"):
        return f"<doc {value.doc_id}>"
    if isinstance(value, (list, tuple)):
        if depth >= 2:
            return f"<list n={len(value)}>"
        inner = ", ".join(_ladder_digest(v, depth + 1) for v in value[:6])
        suffix = ", ..." if len(value) > 6 else ""
        return f"[{inner}{suffix}]"
    if isinstance(value, dict):
        if depth >= 2:
            return f"<map n={len(value)}>"
        inner = ", ".join(
            f"{_ladder_digest(k, depth + 1)}: {_ladder_digest(v, depth + 1)}"
            for k, v in list(value.items())[:6]
        )
        suffix = ", ..." if len(value) > 6 else ""
        return f"{{{inner}{suffix}}}"
    return f"<{type(value).__name__}>"


class _Text(str):
    pass


class _Items(list):
    pass


class _Number(float):
    pass


class _DocLikeList(list):
    doc_id = "listed-doc"


_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 1e16, -1e16, 1e16 - 2, 0.5]
_DIGEST_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.sampled_from(_SPECIAL_FLOATS),
    st.text(max_size=8),
    st.text(min_size=59, max_size=62),
    st.builds(PageHandle, st.text(max_size=5), st.integers(1, 9), st.just("t"), st.just("c")),
    st.builds(lambda doc_id: SimpleNamespace(doc_id=doc_id), st.text(max_size=5)),
    st.integers(),
    st.builds(object),
    st.builds(_Text, st.text(min_size=58, max_size=62)),
    st.builds(_Number, st.sampled_from(_SPECIAL_FLOATS)),
)
_DIGEST_KEYS = st.one_of(st.text(max_size=4), st.floats(), st.booleans(), st.none())


def _digest_values(children):
    items = st.lists(children, max_size=8)
    return st.one_of(
        items,
        items.map(tuple),
        items.map(_Items),
        items.map(_DocLikeList),
        st.dictionaries(_DIGEST_KEYS, children, max_size=8),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_DIGEST_LEAVES, _digest_values, max_leaves=30), st.integers(0, 3))
def test_digest_value_agrees_with_the_isinstance_ladder(value, depth):
    assert digest_value(value, depth) == _ladder_digest(value, depth)
