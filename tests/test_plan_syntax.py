"""Plan syntax that Python's parser reads but the plan language does not."""

from __future__ import annotations

import ast
import warnings

import pytest

from mdqa.planlang import ExecEnv, PlanParseError, execute_plan, parse_plan
from mdqa.planlang.parser import elif_branch

# Each source is valid Python (bar the one-line continuations, which Python
# joins); each is a parse error in the plan language.
PYTHON_ONLY = {
    "carriage-return": "x = 1\remit(x)",
    "crlf": "x = 1\r\nemit(x)\r\n",
    "form-feed": "emit(\x0c1)",
    "trailing-semicolon": "emit(1);",
    "semicolons": "x = 1; emit(x)",
    "parenthesised-for-targets": "for (a, b) in zip([1], [2]):\n  emit(a)",
    "parenthesised-for-target": "for (a) in [1]:\n  emit(a)",
    "for-one-tuple": "for a, in [[1]]:\n  emit(a)",
    "for-trailing-comma": "for a, b, in zip([1], [2]):\n  emit(a)",
    "for-else": "for a in [1]:\n  x = a\nelse:\n  emit(1)",
    "triple-quotes": 'emit("""a""")',
    "implicit-concatenation": 'emit("a" "b")',
    "raw-string": "emit(r'a')",
    "unicode-string": "emit(u'a')",
    "bytes": "emit(b'a')",
    "f-string": "emit(f'a')",
    "non-ascii-name": "\u00aa = 1\nemit(a)",
    "tab-indentation": "if True:\n\temit(1)",
    "chained-comparison": "emit(1 < 2 < 3)",
    "membership": "emit(1 in [1])",
    "hex": "emit(0x1F)",
    "underscores": "emit(1_000)",
    "imaginary": "emit(1j)",
    "trailing-dot": "emit(1.)",
    "bracket-continuation": "emit(1 +\n  2)",
    "backslash-continuation": "emit(1 + \\\n  2)",
    "one-line-if": "if True: emit(1)",
    "one-line-else": "if False:\n  emit(1)\nelse: emit(2)",
    "one-line-for": "for a in [1]: emit(a)",
    "unary-plus": "emit(+1)",
    "and": "emit(1 and 2)",
    "or": "emit(1 or 2)",
    "not": "emit(not 1)",
    "modulo": "emit(5 % 2)",
    "floor-division": "emit(5 // 2)",
    "power": "emit(5 ** 2)",
    "attribute": "x = [1]\nemit(x.count)",
    "slice": "x = [1]\nemit(x[0:1])",
    "tuple-index": "x = {}\nemit(x[1, 2])",
    "tuple": "emit((1, 2))",
    "set": "emit({1})",
    "lambda": "emit(lambda: 1)",
    "list-comprehension": "emit([y for y in [1]])",
    "generator": "emit(sum(y for y in [1]))",
    "conditional-expression": "emit(1 if True else 2)",
    "walrus": "emit((x := 1))",
    "star-args": "x = [1]\nemit(*x)",
    "double-star-kwargs": "x = {}\nemit(**x)",
    "map-unpacking": "emit(len({**{}}))",
    "call-through-parentheses": "(emit)(1)",
    "call-of-a-call": "emit(abs)(1)",
    "augmented-assignment": "x = 1\nx += 1\nemit(x)",
    "annotated-assignment": "x: float = 1\nemit(x)",
    "multi-target-assignment": "x = y = 1\nemit(x)",
    "tuple-assignment": "x, y = 1, 2\nemit(x)",
    "while": "while False:\n  x = 1\nemit(1)",
    "import": "import os\nemit(1)",
    "def": "def f():\n  emit(1)",
}


@pytest.mark.parametrize("source", PYTHON_ONLY.values(), ids=PYTHON_ONLY)
def test_python_only_syntax_is_a_parse_error(source):
    with pytest.raises(PlanParseError, match=r"^line \d+, col \d+: "):
        parse_plan(source)


# What the plan language read before it had Python's parser and reads no more.
NARROWED = {
    "reserved-word-name": "yield = 1\nemit(yield)",
    "reserved-word-loop-target": "for pass in [1]:\n  emit(1)",
    "escape": 'emit("a\\qb")',
    "leading-zero": "emit(01)",
    "long-integer": "emit(" + "1" * 4301 + ")",
    "raw-carriage-return-in-string": "emit('a\rb')",
    "nul-in-string": "emit('a\x00b')",
    "lone-surrogate-in-string": "emit('a\ud800b')",
}


@pytest.mark.parametrize("source", NARROWED.values(), ids=NARROWED)
def test_narrowed_syntax_is_a_parse_error(source):
    with pytest.raises(PlanParseError):
        parse_plan(source)


@pytest.mark.parametrize("source", ['x = "\\d"', "emit(1if x)"])
def test_source_python_warns_about_is_a_parse_error_under_every_filter(source):
    """The scan rejects these before ``ast.parse`` sees them, so no warning
    filter can turn one into a different error."""
    errors = []
    for action in ("default", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(PlanParseError) as exc_info:
                parse_plan(source)
        errors.append(str(exc_info.value))
    assert errors[0] == errors[1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(PlanParseError):
            parse_plan(source)
    assert caught == []


def test_else_if_is_not_elif():
    elif_plan = parse_plan("x = 1\nif x < 0:\n  emit(1)\nelif x > 0:\n  emit(2)\n")
    assert elif_branch(elif_plan.body[1]) is not None
    nested = parse_plan("x = 1\nif x < 0:\n  emit(1)\nelse:\n  if x > 0:\n    emit(2)\n")
    assert elif_branch(nested.body[1]) is None
    (inner,) = nested.body[1].orelse
    assert isinstance(inner, ast.If) and inner.lineno == 5
    elif_trace, nested_trace = (execute_plan(plan, ExecEnv()) for plan in (elif_plan, nested))
    assert elif_trace.emitted == nested_trace.emitted == 2.0
    # An elif is a branch of its statement; the nested if is a statement.
    assert elif_trace.step_count == nested_trace.step_count - 1


def test_numbers_read_as_spelt():
    """The value of a number is ``float`` of its spelling: an integer too
    large for a float is infinite, not an error."""
    spellings = ["0", "00", "7", "1.5", ".5", "2.5e3", "1E-2", "1e+2", "00.5", "1" * 400]
    for spelling in spellings:
        trace = execute_plan(parse_plan(f"emit({spelling})"), ExecEnv())
        assert trace.emitted == float(spelling)


def test_strings_read_their_five_escapes():
    trace = execute_plan(parse_plan(r'''emit("a\\b\"c\'d\ne\tf{{g}}")'''), ExecEnv())
    assert trace.emitted == "a\\b\"c'd\ne\tf{g}"


def test_comments_blank_lines_and_parenthesised_targets():
    source = "# c\n\n  # indented\n(x) = [1]  # trailing\n\n(x)[0] = 2\nemit(x[0])\n"
    program = parse_plan(source)
    assert [stmt.lineno for stmt in program.body] == [4, 6, 7]
    assert execute_plan(program, ExecEnv()).emitted == 2.0


def test_lines_with_non_ascii_strings_keep_their_columns():
    """``ast`` counts columns in UTF-8 bytes; the plan counts characters."""
    ascii_plan = parse_plan('emit(len(["ee", ((1)), {"a": [2]}]) + abs(3))')
    wide_plan = parse_plan('emit(len(["\u00e9\u00e9", ((1)), {"a": [2]}]) + abs(3))')
    assert ast.dump(wide_plan).replace("\u00e9", "e") == ast.dump(ascii_plan)
    with pytest.raises(PlanParseError, match="^line 1, col 11: call to non-whitelisted"):
        parse_plan('x = "\u00e9" + open(x)')


@pytest.mark.parametrize(
    "source, message",
    [
        ("x = 1\ny = x and 2", "line 2, col 5: `x and 2` (And) is not part of the plan language"),
        ("f = lambda y: y", "line 1, col 5: `lambda y: y` (Lambda) is not part of the plan language"),
        ('x = "\u00e9\u00e9" + (1 or 2)', "line 1, col 13: `1 or 2` (Or) is not part of the plan language"),
        ("while False:\n  x = 1", "line 1, col 1: `while False: ...` (While) is not part of the plan language"),
        (
            f"x = [{'1, ' * 30}1] if True else 2",
            f"line 1, col 5: `[{'1, ' * 20}...` (IfExp) is not part of the plan language",
        ),
    ],
    ids=["BoolOp", "Lambda", "non-ASCII-line", "multi-line-statement", "long-expression"],
)
def test_unsupported_node_errors_quote_their_source(source, message):
    """A model reads the error in its retry prompt: it names the source it
    refuses, on one line and at most ``_QUOTE_CHARS`` characters of it."""
    with pytest.raises(PlanParseError) as exc_info:
        parse_plan(source)
    assert str(exc_info.value) == message


def test_python_parse_failures_keep_their_position():
    with pytest.raises(PlanParseError) as exc_info:
        parse_plan("x = 1\nif x:\nemit(x)")
    assert (exc_info.value.line, exc_info.value.col) == (3, 1)
    with pytest.raises(PlanParseError, match="^line 2, col 5: "):
        parse_plan("x = 1\ny = = 2")


def test_call_may_space_its_parenthesis():
    (stmt,) = parse_plan("emit (1)").body
    assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)


def test_python_depth_errors_become_nesting_errors():
    # ast.parse raises MemoryError or RecursionError, by Python version.
    with pytest.raises(PlanParseError, match="^line 1, col 1: .* nests too deeply for Python's"):
        parse_plan("-" * 10**5 + "1")


def _elif_chain(branches: int) -> str:
    tests = "".join(f"elif x == {i}:\n  emit({i})\n" for i in range(1, branches))
    return f"x = {branches - 1}\nif x == 0:\n  emit(0)\n{tests}"


def test_long_elif_chain_runs_in_a_loop():
    """Python's parser nests the branches of an elif chain; the checker
    and the interpreter walk them in a loop, not a frame per branch."""
    assert execute_plan(parse_plan(_elif_chain(1_000)), ExecEnv()).emitted == 999.0


def test_elif_chain_too_long_for_python_is_not_called_too_deep():
    """Python's parser runs out of stack on 10,000 elif branches, which nest
    no plan level."""
    with pytest.raises(PlanParseError) as exc_info:
        parse_plan(_elif_chain(10_000))
    assert str(exc_info.value) == (
        "line 1, col 1: plan is too long or nests too deeply for Python's parser"
    )
