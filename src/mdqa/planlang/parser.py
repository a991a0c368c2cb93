"""Parser for the plan language.

A plan is a small subset of Python, and Python's own parser (``ast.parse``)
reads it. The subset: newline-terminated statements (assignments, ``for``
loops, ``if``/``elif``/``else`` and expressions), indentation-delimited blocks
(canonically 2 spaces), list and map literals, subscripts, interpolated
strings, arithmetic, single comparisons, and calls to a fixed builtin
whitelist. A checker walks the ``ast`` tree against a whitelist of node kinds;
every other node is a ``PlanParseError`` with line and column. The checked
tree is the program: the interpreter runs Python's own nodes. There are no
attribute accesses, no function definitions, no imports, and no way to name a
callable other than the whitelist, so parsing alone establishes the sandbox
boundary. Interpolating an undeclared variable is deferred to runtime.

Python reads some text otherwise than the plan language does, so a scan of
each line comes first. It empties comments and blank lines, and it rejects
tab indentation, statements that run past the end of their line, ``;``,
string prefixes, triple quotes, adjacent strings, escapes other than ``\\``,
``\"``, ``\'``, ``\n`` and ``\t``, and numbers or names not spelt the plan
language's way (``0x1F``, ``1_000``, ``1j``, ``1.``, ``1if``, non-ASCII
names). So ``ast.parse`` never warns about a plan. The checker tests the
rest on the source text: parenthesised ``for`` targets, calls, and one
statement per line.

What Python's parser refuses is refused too, though the plan language once
read it: Python reserved words as names, integers written ``01`` or longer
than 4,300 digits, a raw carriage return, NUL or lone surrogate inside a
string, and ``elif`` chains thousands of branches long.

Nesting is bounded (``MAX_NESTING``), so neither the checker nor the
interpreter's walk of the tree can exhaust Python's stack: a deeper plan is a
``PlanParseError``.
"""

from __future__ import annotations

import ast
import bisect
import functools
import re

BUILTIN_NAMES = frozenset(
    {
        "select_documents",
        "retrieve_relevant_pages",
        "extract_value",
        "emit",
        "min",
        "max",
        "sum",
        "abs",
        "len",
        "range",
        "zip",
        "float",
        "str",
        "argmin",
        "argmax",
        "append",
    }
)

# Levels an expression may nest: the blocks around it, the brackets open
# around it and the unary minus signs above it, plus the height of its tree,
# chains of operators and subscripts included. The interpreter recurses once
# per level.
MAX_NESTING = 64
_TOO_DEEP = f"plan nests deeper than {MAX_NESTING} levels"
# Python's parser gives up on a plan too deep or too long for its stack, such
# as an ``elif`` chain thousands of branches long, which it nests.
_TOO_BIG = "plan is too long or nests too deeply for Python's parser"
# An error quotes at most this many characters of the plan's source.
_QUOTE_CHARS = 60

_NUMBER = r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?"
# What a line holds outside strings and comments. A ``plain`` run needs no
# check: blanks, operators, and names and numbers that end where Python's do.
_LEXEME_RE = re.compile(
    rf"""(?P<plain>(?:[ \t]+|[A-Za-z_]\w*|{_NUMBER}(?![\w.])|[=!<>]=|[-+*/=<>,:])+)
    |(?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
    |(?P<open>[(\[{{])|(?P<close>[)\]}}])|(?P<comment>\#)
    |(?P<word>[\w.]+)|(?P<other>.)""",
    re.ASCII | re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")
_FOR_HEAD_RE = re.compile(r"for[ \t]+\w+(?:[ \t]*,[ \t]*\w+)*[ \t]+in\b", re.ASCII)
_OPERATORS = frozenset(
    {ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE}
)


class PlanParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _scan(source: str) -> tuple[list[str], list]:
    """Check each line for text that Python reads otherwise than a plan does.

    Returns the lines for ``ast.parse``, with comments and blank lines
    emptied, and for each line the columns where a bracket opens or closes,
    after -1, together with the depth after each.
    """
    lines = source.split("\n")
    brackets: list = [None] * len(lines)
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            lines[number - 1] = ""
            continue
        indent = len(line) - len(line.lstrip(" \t"))
        if "\t" in line[:indent]:
            raise PlanParseError("tabs are not allowed in indentation", number, 1)
        cols, depths = [-1], [0]
        for match in _LEXEME_RE.finditer(line, indent):
            kind, col = match.lastgroup, match.start()
            if kind == "plain":
                continue
            if kind in ("open", "close"):
                depths.append(depths[-1] + (1 if kind == "open" else -1))
                cols.append(col)
                if depths[-1] >= MAX_NESTING:
                    raise PlanParseError(_TOO_DEEP, number, col + 1)
            elif kind == "string":
                _check_string(line, match, number)
            elif kind == "comment":
                lines[number - 1] = line[:col]
                break
            elif kind == "word":
                raise PlanParseError(f"{match.group()!r} is not a name or number", number, col + 1)
            elif match.group() in "\"'":
                raise PlanParseError("unterminated string", number, col + 1)
            else:
                raise PlanParseError(f"unexpected character {match.group()!r}", number, col + 1)
        if depths[-1] > 0:
            raise PlanParseError("statement runs past the end of its line", number, len(line) + 1)
        brackets[number - 1] = (cols, depths)
    return lines, brackets


def _check_string(line: str, match: re.Match, number: int) -> None:
    start, end = match.span()
    if start and (line[start - 1].isalnum() or line[start - 1] == "_"):
        raise PlanParseError("strings take no prefix", number, start)
    if line[end:].lstrip(" \t")[:1] in ("'", '"'):
        raise PlanParseError("a string may not follow a string", number, end + 1)
    for escape in _ESCAPE_RE.findall(match.group()):
        if escape not in "\\\"'nt":
            raise PlanParseError(f"unsupported escape \\{escape}", number, start + 1)


def elif_branch(node: ast.If) -> ast.If | None:
    """The ``elif`` branch that follows ``node``, or None.

    Python reads an ``elif`` as the one ``If`` in the ``else`` block, at the
    column of its parent; the statements of an ``else:`` block are indented
    deeper.
    """
    orelse = node.orelse
    if len(orelse) == 1 and isinstance(orelse[0], ast.If) and orelse[0].col_offset == node.col_offset:
        return orelse[0]
    return None


class _Checker:
    """Checks the ``ast`` of the scanned lines against the plan language.

    An expression's level is the higher of its parent's level plus one and
    its own nesting: the blocks around it, the brackets open before it and
    the unary minus signs above it. No level may pass ``MAX_NESTING``; a
    list, map or call needs one more.
    """

    def __init__(self, lines: list[str], brackets: list):
        self.lines = lines
        self.brackets = brackets

    def col(self, line: int, offset: int) -> int:
        """The character column of the UTF-8 byte offset that ``ast`` gives."""
        text = self.lines[line - 1]
        return offset if text.isascii() else len(text.encode()[:offset].decode())

    def error(self, node: ast.AST, message: str) -> PlanParseError:
        return PlanParseError(message, node.lineno, self.col(node.lineno, node.col_offset) + 1)

    def unsupported(self, node: ast.AST) -> PlanParseError:
        what = type(getattr(node, "op", node)).__name__
        return self.error(node, f"`{self.quote(node)}` ({what}) is not part of the plan language")

    def quote(self, node: ast.AST) -> str:
        """The source of ``node`` on its first line, cut to ``_QUOTE_CHARS``."""
        line, text = node.lineno, self.lines[node.lineno - 1]
        end = self.col(line, node.end_col_offset) if node.end_lineno == line else len(text)
        source = text[self.col(line, node.col_offset) : end].rstrip()
        if node.end_lineno != line or len(source) > _QUOTE_CHARS:
            return source[:_QUOTE_CHARS] + " ..."
        return source

    def block(self, nodes: list, blocks: int) -> None:
        for node in nodes:
            self.statement(node, blocks)

    def statement(self, node: ast.stmt, blocks: int) -> None:
        text, nest = self.lines[node.lineno - 1], blocks + 1
        if text[: node.col_offset].strip():
            raise self.error(node, "only one statement may start on a line")
        if isinstance(node, ast.Expr):
            self.expr(node.value, nest)
        elif isinstance(node, ast.Assign):
            target = node.targets[0]
            if len(node.targets) > 1 or not isinstance(target, (ast.Name, ast.Subscript)):
                raise self.error(node, "assignment target must be a name or subscript")
            self.expr(target, nest)
            self.expr(node.value, nest)
        elif isinstance(node, ast.For):
            if node.orelse or not _FOR_HEAD_RE.match(text, node.col_offset):
                raise self.error(node, "a loop reads 'for name, ... in iterable:'")
            self.expr(node.iter, nest)
            self.block(node.body, blocks + 1)
        elif isinstance(node, ast.If):
            branch = node
            while branch is not None:
                self.expr(branch.test, nest)
                self.block(branch.body, blocks + 1)
                node, branch = branch, elif_branch(branch)
            self.block(node.orelse, blocks + 1)
        else:
            raise self.unsupported(node)

    def expr(self, node: ast.expr, nest: int, above: int = 0) -> None:
        """``nest`` counts the blocks around the statement, plus one, and the
        unary minus signs above ``node``; ``above`` is its parent's level."""
        line = node.lineno
        cols, depths = self.brackets[line - 1]
        brackets = depths[bisect.bisect_left(cols, self.col(line, node.col_offset)) - 1]
        level = max(above + 1, nest + brackets)
        if level + isinstance(node, (ast.List, ast.Dict, ast.Call)) > MAX_NESTING:
            raise self.error(node, _TOO_DEEP)
        # A constant needs no check: the scan lets through only the plan
        # language's numbers and strings, True, False and None.
        if isinstance(node, (ast.Constant, ast.Name)):
            return
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            children = [node.left, node.right]
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _OPERATORS:
            children = [node.left, node.comparators[0]]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            self.expr(node.operand, nest + 1, level)
            return
        elif isinstance(node, ast.Subscript):
            children = [node.value, node.slice]
        elif isinstance(node, ast.List):
            children = node.elts
        elif isinstance(node, ast.Dict) and None not in node.keys:
            children = [item for pair in zip(node.keys, node.values) for item in pair]
        elif isinstance(node, ast.Call):
            self.call(node)
            children = node.args + [keyword.value for keyword in node.keywords]
        else:
            raise self.unsupported(node)
        for child in children:
            self.expr(child, nest, level)

    def call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Name):
            raise self.error(node, "a call must name a builtin")
        after = self.lines[func.lineno - 1][self.col(func.lineno, func.end_col_offset) :]
        if not after.lstrip(" \t").startswith("("):
            raise self.error(node, "a call must name a builtin")
        if func.id not in BUILTIN_NAMES:
            raise self.error(func, f"call to non-whitelisted function {func.id!r}")
        if any(keyword.arg is None for keyword in node.keywords):
            raise self.error(node, "**arguments are not part of the plan language")


@functools.lru_cache(maxsize=32)
def parse_plan(source: str) -> ast.Module:
    """Parse plan source into Python's syntax tree of it, checked.

    Raises PlanParseError with line/column on syntax errors, on Python syntax
    outside the plan language, and on any call to a function outside the
    builtin whitelist.

    Results are memoised by source text (a few dozen recent sources): the
    interpreter never mutates a tree. Errors are not memoised, so a bad
    source raises on every call.
    """
    if not source or not source.strip():
        raise PlanParseError("empty plan source", 1, 1)
    lines, brackets = _scan(source)
    try:
        module = ast.parse("\n".join(lines), "<plan>")
    except SyntaxError as exc:
        raise PlanParseError(exc.msg, exc.lineno or 1, exc.offset or 1) from None
    except ValueError as exc:  # a NUL byte before 3.12, a lone surrogate
        raise PlanParseError(str(exc), 1, 1) from None
    except (RecursionError, MemoryError):
        raise PlanParseError(_TOO_BIG, 1, 1) from None
    _Checker(lines, brackets).block(module.body, 0)
    if not module.body:
        raise PlanParseError("plan has no statements", 1, 1)
    return module
