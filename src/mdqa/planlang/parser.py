"""Parser for the plan language.

A plan is a small subset of Python, and Python's own parser (``ast.parse``)
reads it. The subset: newline-terminated statements (assignments, ``for``
loops, ``if``/``elif``/``else`` and expressions), indentation-delimited blocks
(canonically 2 spaces), list and map literals, subscripts, interpolated
strings, arithmetic, single comparisons, and calls to a fixed builtin
whitelist. A converter walks a whitelist of ``ast`` nodes into the plan's own
node classes below; every other node is a ``PlanParseError`` with line and
column. There are no attribute accesses, no function definitions, no imports,
and no way to name a callable other than the whitelist, so parsing alone
establishes the sandbox boundary. Interpolating an undeclared variable is
deferred to runtime.

Python reads some text otherwise than the plan language does, so a scan of
each line comes first. It empties comments and blank lines, and it rejects
tab indentation, statements that run past the end of their line, ``;``,
string prefixes, triple quotes, adjacent strings, escapes other than ``\\``,
``\"``, ``\'``, ``\n`` and ``\t``, and numbers or names not spelt the plan
language's way (``0x1F``, ``1_000``, ``1j``, ``1.``, ``1if``, non-ASCII
names). So ``ast.parse`` never warns about a plan. The converter checks the
rest on the source text: parenthesised ``for`` targets, ``elif`` against
``else: if``, and one statement per line.

What Python's parser refuses is refused too, though the plan language once
read it: Python reserved words as names, integers written ``01`` or longer
than 4,300 digits, a raw carriage return, NUL or lone surrogate inside a
string, and ``elif`` chains thousands of branches long.

Nesting is bounded (``MAX_NESTING``), so neither the conversion nor the
interpreter's walk of the tree can exhaust Python's stack: a deeper plan is a
``PlanParseError``.
"""

from __future__ import annotations

import ast
import bisect
import functools
import re
from dataclasses import dataclass

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
_INTERP_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")
_FOR_HEAD_RE = re.compile(r"for[ \t]+\w+(?:[ \t]*,[ \t]*\w+)*[ \t]+in\b", re.ASCII)
_OPERATORS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
}


class PlanParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# --------------------------------------------------------------------------
# AST nodes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    line: int = 0


@dataclass(frozen=True)
class Str:
    # Alternating segments: ("lit", text) and ("var", identifier).
    parts: tuple[tuple[str, str], ...]
    line: int = 0


@dataclass(frozen=True)
class Bool:
    value: bool
    line: int = 0


@dataclass(frozen=True)
class NoneLit:
    line: int = 0


@dataclass(frozen=True)
class Name:
    ident: str
    line: int = 0


@dataclass(frozen=True)
class ListLit:
    items: tuple
    line: int = 0


@dataclass(frozen=True)
class MapLit:
    items: tuple  # of (key_expr, value_expr)
    line: int = 0


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    line: int = 0


@dataclass(frozen=True)
class UnaryOp:
    op: str
    operand: object
    line: int = 0


@dataclass(frozen=True)
class Compare:
    op: str
    left: object
    right: object
    line: int = 0


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    kwargs: tuple  # of (name, expr)
    line: int = 0


@dataclass(frozen=True)
class Subscript:
    target: object
    index: object
    line: int = 0


@dataclass(frozen=True)
class Assign:
    target: object  # Name or Subscript
    value: object
    line: int = 0


@dataclass(frozen=True)
class For:
    targets: tuple[str, ...]
    iterable: object
    body: tuple
    line: int = 0


@dataclass(frozen=True)
class If:
    # (condition, body) branches in order; the else branch has condition None.
    branches: tuple
    line: int = 0


@dataclass(frozen=True)
class ExprStmt:
    expr: object
    line: int = 0


@dataclass(frozen=True)
class PlanProgram:
    source: str
    statements: tuple


def _split_interpolation(text: str, line: int) -> tuple[tuple[str, str], ...]:
    # "{{" and "}}" escape literal braces; "{name}" interpolates.
    parts: list[tuple[str, str]] = []
    buf: list[str] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if text[pos : pos + 2] in ("{{", "}}"):
            buf.append(ch)
            pos += 2
            continue
        if ch == "{":
            m = _INTERP_RE.match(text, pos)
            if m:
                if buf:
                    parts.append(("lit", "".join(buf)))
                    buf = []
                parts.append(("var", m.group(1)))
                pos = m.end()
                continue
        buf.append(ch)
        pos += 1
    if buf:
        parts.append(("lit", "".join(buf)))
    if not parts:
        parts.append(("lit", ""))
    return tuple(parts)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


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


class _Converter:
    """Builds plan nodes from the ``ast`` of the scanned lines.

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
        return self.error(node, f"{what} is not part of the plan language")

    def block(self, nodes: list, blocks: int) -> tuple:
        return tuple(self.statement(node, blocks) for node in nodes)

    def statement(self, node: ast.stmt, blocks: int):
        line, text, nest = node.lineno, self.lines[node.lineno - 1], blocks + 1
        if text[: node.col_offset].strip():
            raise self.error(node, "only one statement may start on a line")
        if isinstance(node, ast.Expr):
            return ExprStmt(self.expr(node.value, nest), line)
        if isinstance(node, ast.Assign):
            target = node.targets[0]
            if len(node.targets) > 1 or not isinstance(target, (ast.Name, ast.Subscript)):
                raise self.error(node, "assignment target must be a name or subscript")
            return Assign(self.expr(target, nest), self.expr(node.value, nest), line)
        if isinstance(node, ast.For):
            if node.orelse or not _FOR_HEAD_RE.match(text, node.col_offset):
                raise self.error(node, "a loop reads 'for name, ... in iterable:'")
            names = node.target.elts if isinstance(node.target, ast.Tuple) else [node.target]
            targets = tuple(name.id for name in names)
            return For(targets, self.expr(node.iter, nest), self.block(node.body, blocks + 1), line)
        if isinstance(node, ast.If):
            branches = [(self.expr(node.test, nest), self.block(node.body, blocks + 1))]
            orelse = node.orelse
            # Python reads `elif` as an `if` alone in the `else` block.
            while (
                len(orelse) == 1
                and isinstance(orelse[0], ast.If)
                and self.lines[orelse[0].lineno - 1].startswith("elif", orelse[0].col_offset)
            ):
                node = orelse[0]
                branches.append((self.expr(node.test, nest), self.block(node.body, blocks + 1)))
                orelse = node.orelse
            if orelse:
                branches.append((None, self.block(orelse, blocks + 1)))
            return If(tuple(branches), line)
        raise self.unsupported(node)

    def expr(self, node: ast.expr, nest: int, above: int = 0):
        """``nest`` counts the blocks around the statement, plus one, and the
        unary minus signs above ``node``; ``above`` is its parent's level."""
        line = node.lineno
        cols, depths = self.brackets[line - 1]
        brackets = depths[bisect.bisect_left(cols, self.col(line, node.col_offset)) - 1]
        level = max(above + 1, nest + brackets)
        if level + isinstance(node, (ast.List, ast.Dict, ast.Call)) > MAX_NESTING:
            raise self.error(node, _TOO_DEEP)
        if isinstance(node, ast.Constant):
            return self.constant(node)
        if isinstance(node, ast.Name):
            return Name(node.id, line)
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            left, right = self.expr(node.left, nest, level), self.expr(node.right, nest, level)
            return BinOp(_OPERATORS[type(node.op)], left, right, line)
        if isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _OPERATORS:
            left = self.expr(node.left, nest, level)
            right = self.expr(node.comparators[0], nest, level)
            return Compare(_OPERATORS[type(node.ops[0])], left, right, line)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return UnaryOp("-", self.expr(node.operand, nest + 1, level), line)
        if isinstance(node, ast.Subscript):
            target, index = self.expr(node.value, nest, level), self.expr(node.slice, nest, level)
            return Subscript(target, index, line)
        if isinstance(node, ast.List):
            return ListLit(tuple(self.expr(item, nest, level) for item in node.elts), line)
        if isinstance(node, ast.Dict) and None not in node.keys:
            items = zip(node.keys, node.values)
            pairs = ((self.expr(k, nest, level), self.expr(v, nest, level)) for k, v in items)
            return MapLit(tuple(pairs), line)
        if isinstance(node, ast.Call):
            return self.call(node, nest, level)
        raise self.unsupported(node)

    def constant(self, node: ast.Constant):
        value, line = node.value, node.lineno
        if isinstance(value, bool):
            return Bool(value, line)
        if value is None:
            return NoneLit(line)
        if isinstance(value, str):
            return Str(_split_interpolation(value, line), line)
        # A number: the scan let through only the plan language's spellings,
        # which float() reads as the plan language does.
        start, end = self.col(line, node.col_offset), self.col(line, node.end_col_offset)
        return Num(float(self.lines[line - 1][start:end]), line)

    def call(self, node: ast.Call, nest: int, level: int) -> Call:
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
        args = tuple(self.expr(arg, nest, level) for arg in node.args)
        kwargs = tuple((kw.arg, self.expr(kw.value, nest, level)) for kw in node.keywords)
        return Call(func.id, args, kwargs, node.lineno)


@functools.lru_cache(maxsize=32)
def parse_plan(source: str) -> PlanProgram:
    """Parse plan source into a PlanProgram.

    Raises PlanParseError with line/column on syntax errors, on Python syntax
    outside the plan language, and on any call to a function outside the
    builtin whitelist.

    Results are memoised by source text (a few dozen recent sources): the
    program and its AST nodes are frozen, and the interpreter never mutates
    them. Errors are not memoised, so a bad source raises on every call.
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
        raise PlanParseError(_TOO_DEEP, 1, 1) from None
    statements = _Converter(lines, brackets).block(module.body, 0)
    if not statements:
        raise PlanParseError("plan has no statements", 1, 1)
    return PlanProgram(source=source, statements=statements)
