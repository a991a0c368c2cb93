"""Tokenizer and parser for the plan language.

The grammar is a deliberately small imperative subset: newline-terminated
statements, indentation-delimited blocks (canonically 2 spaces; any
consistent deepening is accepted), list and map literals, subscripts,
interpolated strings, arithmetic, comparisons, and calls to a fixed builtin
whitelist. There are no attribute accesses, no function definitions, no
imports, and no way to name a callable other than the whitelist, so parsing
alone establishes the sandbox boundary. Calling anything outside the
whitelist is a parse error; interpolating an undeclared variable is deferred
to runtime.

Nesting is bounded (``MAX_NESTING``), so neither the parser's recursion nor
the interpreter's walk of the tree can exhaust Python's stack: a deeper plan
is a ``PlanParseError``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Optional

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

# Levels a statement may nest: the blocks around it, plus its expression's
# open brackets and unary minus signs (the parser recurses once per level) or
# its tree height, chains of operators and subscripts included (the
# interpreter recurses once per level), whichever is higher.
MAX_NESTING = 64

_KEYWORDS = {"for", "in", "if", "elif", "else", "True", "False", "None"}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+")
_INTERP_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


class PlanParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # NAME KEYWORD NUMBER STRING OP NEWLINE INDENT DEDENT EOF
    value: str
    line: int
    col: int


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


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_TWO_CHAR_OPS = ("==", "!=", "<=", ">=")
_ONE_CHAR_OPS = "+-*/=<>()[]{},:"


def _lex_line(text: str, line_no: int, start: int) -> list[Token]:
    tokens: list[Token] = []
    pos = start
    while pos < len(text):
        ch = text[pos]
        if ch in " \t":
            pos += 1
            continue
        if ch == "#":
            break
        col = pos + 1
        if ch in "\"'":
            quote = ch
            pos += 1
            chunks = []
            while True:
                if pos >= len(text):
                    raise PlanParseError("unterminated string", line_no, col)
                c = text[pos]
                if c == "\\":
                    if pos + 1 >= len(text):
                        raise PlanParseError("bad escape at end of line", line_no, col)
                    esc = text[pos + 1]
                    chunks.append({"n": "\n", "t": "\t"}.get(esc, esc))
                    pos += 2
                    continue
                if c == quote:
                    pos += 1
                    break
                chunks.append(c)
                pos += 1
            tokens.append(Token("STRING", "".join(chunks), line_no, col))
            continue
        two = text[pos : pos + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token("OP", two, line_no, col))
            pos += 2
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(Token("NUMBER", m.group(), line_no, col))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            word = m.group()
            kind = "KEYWORD" if word in _KEYWORDS else "NAME"
            tokens.append(Token(kind, word, line_no, col))
            pos = m.end()
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("OP", ch, line_no, col))
            pos += 1
            continue
        raise PlanParseError(f"unexpected character {ch!r}", line_no, col)
    return tokens


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    indents = [0]
    lines = source.split("\n")
    last_line = 1
    for line_no, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        last_line = line_no
        indent = len(raw) - len(raw.lstrip(" \t"))
        if "\t" in raw[:indent]:
            raise PlanParseError("tabs are not allowed in indentation", line_no, 1)
        if indent > indents[-1]:
            indents.append(indent)
            tokens.append(Token("INDENT", "", line_no, 1))
        else:
            while indent < indents[-1]:
                indents.pop()
                tokens.append(Token("DEDENT", "", line_no, 1))
            if indent != indents[-1]:
                raise PlanParseError("inconsistent indentation", line_no, 1)
        body = _lex_line(raw, line_no, indent)
        if body:
            tokens.extend(body)
            tokens.append(Token("NEWLINE", "", line_no, len(raw) + 1))
    while len(indents) > 1:
        indents.pop()
        tokens.append(Token("DEDENT", "", last_line, 1))
    tokens.append(Token("EOF", "", last_line + 1, 1))
    return tokens


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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # blocks, expressions and unary minus signs open
        self.height = 0  # of the expression tree parsed last

    def _nest(self, tok: Token) -> None:
        """Open one more level at ``tok``; close it with ``depth -= 1``."""
        self.depth += 1
        self._check(0, tok)

    def _grow(self, height: int, tok: Token) -> None:
        """The expression tree ending at ``tok`` is ``height`` levels high."""
        self.height = height
        self._check(height, tok)

    def _check(self, height: int, tok: Token) -> None:
        if self.depth + height > MAX_NESTING:
            raise PlanParseError(
                f"plan nests deeper than {MAX_NESTING} levels", tok.line, tok.col
            )

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            wanted = value or kind
            raise PlanParseError(
                f"expected {wanted!r}, found {tok.value or tok.kind!r}",
                tok.line,
                tok.col,
            )
        return self.advance()

    def at_op(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value == value

    def at_keyword(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.value == value

    # -- statements --------------------------------------------------------

    def parse_program(self, source: str) -> PlanProgram:
        statements = []
        while self.peek().kind != "EOF":
            statements.append(self.parse_statement())
        return PlanProgram(source=source, statements=tuple(statements))

    def parse_block(self) -> tuple:
        self.expect("NEWLINE")
        self._nest(self.expect("INDENT"))
        body = []
        while self.peek().kind not in ("DEDENT", "EOF"):
            body.append(self.parse_statement())
        if self.peek().kind == "DEDENT":
            self.advance()
        if not body:
            tok = self.peek()
            raise PlanParseError("empty block", tok.line, tok.col)
        self.depth -= 1
        return tuple(body)

    def parse_statement(self):
        tok = self.peek()
        if tok.kind == "KEYWORD" and tok.value == "for":
            return self.parse_for()
        if tok.kind == "KEYWORD" and tok.value == "if":
            return self.parse_if()
        expr = self.parse_expr()
        if self.at_op("="):
            eq = self.advance()
            if not isinstance(expr, (Name, Subscript)):
                raise PlanParseError(
                    "assignment target must be a name or subscript", eq.line, eq.col
                )
            value = self.parse_expr()
            self.expect("NEWLINE")
            return Assign(target=expr, value=value, line=tok.line)
        self.expect("NEWLINE")
        return ExprStmt(expr=expr, line=tok.line)

    def parse_for(self):
        start = self.expect("KEYWORD", "for")
        targets = [self.expect("NAME").value]
        while self.at_op(","):
            self.advance()
            targets.append(self.expect("NAME").value)
        self.expect("KEYWORD", "in")
        iterable = self.parse_expr()
        self.expect("OP", ":")
        body = self.parse_block()
        return For(targets=tuple(targets), iterable=iterable, body=body, line=start.line)

    def parse_if(self):
        start = self.expect("KEYWORD", "if")
        branches = []
        cond = self.parse_expr()
        self.expect("OP", ":")
        branches.append((cond, self.parse_block()))
        while self.at_keyword("elif"):
            self.advance()
            cond = self.parse_expr()
            self.expect("OP", ":")
            branches.append((cond, self.parse_block()))
        if self.at_keyword("else"):
            self.advance()
            self.expect("OP", ":")
            branches.append((None, self.parse_block()))
        return If(branches=tuple(branches), line=start.line)

    # -- expressions --------------------------------------------------------

    def parse_expr(self):
        self._nest(self.peek())
        node = self.parse_comparison()
        self.depth -= 1
        return node

    def parse_comparison(self):
        left = self.parse_arith()
        tok = self.peek()
        if tok.kind == "OP" and tok.value in ("==", "!=", "<", "<=", ">", ">="):
            self.advance()
            height = self.height
            right = self.parse_arith()
            self._grow(max(height, self.height) + 1, tok)
            return Compare(op=tok.value, left=left, right=right, line=tok.line)
        return left

    def parse_arith(self):
        node = self.parse_term()
        while self.peek().kind == "OP" and self.peek().value in ("+", "-"):
            op = self.advance()
            height = self.height
            right = self.parse_term()
            self._grow(max(height, self.height) + 1, op)
            node = BinOp(op=op.value, left=node, right=right, line=op.line)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind == "OP" and self.peek().value in ("*", "/"):
            op = self.advance()
            height = self.height
            right = self.parse_unary()
            self._grow(max(height, self.height) + 1, op)
            node = BinOp(op=op.value, left=node, right=right, line=op.line)
        return node

    def parse_unary(self):
        if self.at_op("-"):
            op = self.advance()
            self._nest(op)
            operand = self.parse_unary()
            self.depth -= 1
            self._grow(self.height + 1, op)
            return UnaryOp(op="-", operand=operand, line=op.line)
        return self.parse_postfix()

    def parse_postfix(self):
        node = self.parse_atom()
        while self.at_op("["):
            bracket = self.advance()
            height = self.height
            index = self.parse_expr()
            self.expect("OP", "]")
            self._grow(max(height, self.height) + 1, bracket)
            node = Subscript(target=node, index=index, line=bracket.line)
        return node

    def parse_atom(self):
        tok = self.peek()
        self.height = 0
        if tok.kind == "NUMBER":
            self.advance()
            return Num(value=float(tok.value), line=tok.line)
        if tok.kind == "STRING":
            self.advance()
            return Str(parts=_split_interpolation(tok.value, tok.line), line=tok.line)
        if tok.kind == "KEYWORD" and tok.value in ("True", "False"):
            self.advance()
            return Bool(value=tok.value == "True", line=tok.line)
        if tok.kind == "KEYWORD" and tok.value == "None":
            self.advance()
            return NoneLit(line=tok.line)
        if tok.kind == "NAME":
            if self.peek(1).kind == "OP" and self.peek(1).value == "(":
                return self.parse_call()
            self.advance()
            return Name(ident=tok.value, line=tok.line)
        if self.at_op("("):
            self.advance()
            node = self.parse_expr()
            self.expect("OP", ")")
            return node
        if self.at_op("["):
            self.advance()
            items = []
            height = 0
            while not self.at_op("]"):
                items.append(self.parse_expr())
                height = max(height, self.height)
                if self.at_op(","):
                    self.advance()
                elif not self.at_op("]"):
                    bad = self.peek()
                    raise PlanParseError("expected ',' or ']'", bad.line, bad.col)
            self._grow(height + 1, self.advance())
            return ListLit(items=tuple(items), line=tok.line)
        if self.at_op("{"):
            self.advance()
            items = []
            height = 0
            while not self.at_op("}"):
                key = self.parse_expr()
                height = max(height, self.height)
                self.expect("OP", ":")
                value = self.parse_expr()
                height = max(height, self.height)
                items.append((key, value))
                if self.at_op(","):
                    self.advance()
                elif not self.at_op("}"):
                    bad = self.peek()
                    raise PlanParseError("expected ',' or '}'", bad.line, bad.col)
            self._grow(height + 1, self.advance())
            return MapLit(items=tuple(items), line=tok.line)
        raise PlanParseError(
            f"unexpected token {tok.value or tok.kind!r}", tok.line, tok.col
        )

    def parse_call(self):
        name_tok = self.expect("NAME")
        if name_tok.value not in BUILTIN_NAMES:
            raise PlanParseError(
                f"call to non-whitelisted function {name_tok.value!r}",
                name_tok.line,
                name_tok.col,
            )
        self.expect("OP", "(")
        args = []
        kwargs = []
        height = 0
        while not self.at_op(")"):
            tok = self.peek()
            if (
                tok.kind == "NAME"
                and self.peek(1).kind == "OP"
                and self.peek(1).value == "="
            ):
                self.advance()
                self.advance()
                kwargs.append((tok.value, self.parse_expr()))
            else:
                if kwargs:
                    raise PlanParseError(
                        "positional argument after keyword argument", tok.line, tok.col
                    )
                args.append(self.parse_expr())
            height = max(height, self.height)
            if self.at_op(","):
                self.advance()
            elif not self.at_op(")"):
                bad = self.peek()
                raise PlanParseError("expected ',' or ')'", bad.line, bad.col)
        self._grow(height + 1, self.advance())
        return Call(
            name=name_tok.value,
            args=tuple(args),
            kwargs=tuple(kwargs),
            line=name_tok.line,
        )


@functools.lru_cache(maxsize=32)
def parse_plan(source: str) -> PlanProgram:
    """Parse plan source into a PlanProgram.

    Raises PlanParseError with line/column on syntax errors and on any call
    to a function outside the builtin whitelist.

    Results are memoised by source text (a few dozen recent sources): the
    program and its AST nodes are frozen, and the interpreter never mutates
    them. Errors are not memoised, so a bad source raises on every call.
    """
    if not source or not source.strip():
        raise PlanParseError("empty plan source", 1, 1)
    tokens = tokenize(source)
    program = _Parser(tokens).parse_program(source)
    if not program.statements:
        raise PlanParseError("plan has no statements", 1, 1)
    return program
