"""Sandboxed execution of parsed plan programs.

The interpreter walks the checked ``ast`` tree that ``parse_plan`` returns,
with a plain environment dict. Effectful builtins are injected callables; the
interpreter itself touches no files, no network, and no process state, so a
plan's observable behaviour is exactly its trace. Numeric semantics are 64-bit
floats throughout.

Budgets: every statement and expression evaluation costs one step
(``STEP_BUDGET``, 10,000 in all); every recorded builtin call costs one unit
of ``BUILTIN_BUDGET`` (64). ``emit`` terminates the program and is not
recorded as a builtin call. Every string that ``+`` or interpolation makes
charges its length to the size budget (``SIZE_BUDGET``, 1,000,000 characters
in all), checked before the string is made, so a plan that doubles a string
in a loop fails instead of exhausting memory. Every plan runs with these
three budgets.
"""

from __future__ import annotations

import ast
import functools
import math
import re
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Optional

from ..records import PageHandle
from .parser import elif_branch

STEP_BUDGET = 10_000
BUILTIN_BUDGET = 64
# Characters that ``+`` and interpolation may build in one execution, in all.
SIZE_BUDGET = 1_000_000

_INTERP_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


class PlanRuntimeError(Exception):
    """Execution failed; ``trace`` holds everything observed up to the error."""

    def __init__(self, kind: str, message: str, trace: "PlanTrace"):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.trace = trace


class _EmitSignal(Exception):
    pass


@dataclass
class PlanTrace:
    builtin_calls: list[tuple[str, str, str]] = field(default_factory=list)
    # Insertion-ordered sets: first retrieved first, each recorded once.
    retrieved_pages: dict[tuple[str, int], None] = field(default_factory=dict)
    selected_docs: dict[str, None] = field(default_factory=dict)
    # Chat calls made while the plan ran; the caller of execute_plan counts them.
    chat_calls: int = 0
    emitted: Any = None
    completed: bool = False
    step_count: int = 0

    def to_json_dict(self) -> dict:
        """The trace as a run stores it; its pages are the run's own."""
        return {
            "builtin_calls": [list(c) for c in self.builtin_calls],
            "selected_docs": list(self.selected_docs),
            "chat_calls": self.chat_calls,
            "emitted": digest_value(self.emitted) if self.completed else None,
            "completed": self.completed,
            "step_count": self.step_count,
        }


@dataclass
class ExecEnv:
    """A plan's three effects, the only things its execution may touch.

    ``select_fn(**filters)`` returns documents;
    ``retrieve_fn(question, documents_or_none)`` returns PageHandles and
    closes over the retrieval depth k; ``extract_fn(question, pages)``
    returns the value. A plan that calls an effect left ``None`` fails with
    ``builtin_unavailable``: the page-only system has no ``select_fn``.
    """

    select_fn: Optional[Callable] = None
    retrieve_fn: Optional[Callable] = None
    extract_fn: Optional[Callable] = None


# Each effect's ExecEnv field, and what an exception it raises fails as:
# the failure's kind and the prefix of its message.
_EFFECTS = {
    "select_documents": ("select_fn", "value_error", "select_documents failed: "),
    "retrieve_relevant_pages": ("retrieve_fn", "value_error", "retrieve_relevant_pages failed: "),
    "extract_value": ("extract_fn", "extraction_failed", ""),
}


def digest_value(value: Any, depth: int = 0) -> str:
    """Short deterministic rendering of a runtime value for the trace."""
    if isinstance(value, float):
        return _number_text(value)
    if isinstance(value, str):
        return value if len(value) <= 60 else value[:57] + "..."
    if isinstance(value, PageHandle):
        return f"<page {value.doc_id}#{value.page_number}>"
    # Exact lists and tuples hold no doc_id; a subclass that has one renders
    # as the document it names.
    kind = type(value)
    if kind is list or kind is tuple:
        return _digest_items(value, depth)
    if isinstance(value, bool):
        return "True" if value else "False"
    if value is None:
        return "None"
    if hasattr(value, "doc_id"):
        return f"<doc {value.doc_id}>"
    if isinstance(value, (list, tuple)):
        return _digest_items(value, depth)
    if isinstance(value, dict):
        if depth >= 2:
            return f"<map n={len(value)}>"
        inner = ", ".join(
            f"{digest_value(k, depth + 1)}: {digest_value(v, depth + 1)}"
            for k, v in islice(value.items(), 6)
        )
        suffix = ", ..." if len(value) > 6 else ""
        return f"{{{inner}{suffix}}}"
    return f"<{type(value).__name__}>"


def _digest_items(value: list | tuple, depth: int) -> str:
    if depth >= 2:
        return f"<list n={len(value)}>"
    inner = ", ".join([digest_value(v, depth + 1) for v in islice(value, 6)])
    return f"[{inner}, ...]" if len(value) > 6 else f"[{inner}]"


@functools.lru_cache(maxsize=256)
def _split_interpolation(text: str) -> tuple[tuple[str, str], ...]:
    """A string's alternating segments: ("lit", text) and ("var", identifier).

    "{{" and "}}" escape literal braces; "{name}" interpolates.
    """
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


def _number_text(value: float) -> str:
    if not math.isfinite(value):
        return repr(value)
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


class _Interpreter:
    def __init__(self, program: ast.Module, env: ExecEnv):
        self.program = program
        self.env = env
        self.trace = PlanTrace()
        self.vars: dict[str, Any] = {}
        self.chars_built = 0

    # -- bookkeeping --------------------------------------------------------

    def fail(self, kind: str, message: str) -> PlanRuntimeError:
        return PlanRuntimeError(kind, message, self.trace)

    def tick(self, n: int = 1) -> None:
        self.trace.step_count += n
        if self.trace.step_count > STEP_BUDGET:
            raise self.fail("step_budget_exceeded", f"execution exceeded {STEP_BUDGET} steps")

    def charge_chars(self, n: int) -> None:
        """Charge a string of ``n`` characters before it is made."""
        self.chars_built += n
        if self.chars_built > SIZE_BUDGET:
            raise self.fail(
                "size_budget_exceeded",
                f"execution built more than {SIZE_BUDGET} characters",
            )

    def record_builtin(self, name: str, args: list, result: Any) -> None:
        self.trace.builtin_calls.append(
            (name, digest_value(list(args)), digest_value(result))
        )
        if len(self.trace.builtin_calls) > BUILTIN_BUDGET:
            raise self.fail(
                "builtin_budget_exceeded", f"execution exceeded {BUILTIN_BUDGET} builtin calls"
            )

    # -- execution ----------------------------------------------------------

    def run(self) -> PlanTrace:
        try:
            for stmt in self.program.body:
                self.exec_stmt(stmt)
        except _EmitSignal:
            self.trace.completed = True
            return self.trace
        raise self.fail("no_answer", "plan completed without calling emit")

    def exec_stmt(self, stmt) -> None:
        self.tick()
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            self.assign(stmt.targets[0], value)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.For):
            self.exec_for(stmt)
        elif isinstance(stmt, ast.If):
            self.exec_if(stmt)
        else:  # pragma: no cover - the parser admits only the above
            raise self.fail("type_error", f"unknown statement {type(stmt).__name__}")

    def assign(self, target, value) -> None:
        if isinstance(target, ast.Name):
            self.vars[target.id] = value
            return
        container = self.eval(target.value)
        index = self.eval(target.slice)
        if isinstance(container, dict):
            if isinstance(index, (str, float, bool)):
                container[index] = value
                return
            raise self.fail("type_error", "map keys must be strings or numbers")
        if isinstance(container, list):
            idx = self._list_index(container, index)
            container[idx] = value
            return
        raise self.fail("type_error", "subscript assignment needs a list or map")

    def _list_index(self, container, index) -> int:
        if not isinstance(index, float) or not index.is_integer():
            raise self.fail("type_error", "list index must be an integer")
        idx = int(index)
        if idx < 0:
            idx += len(container)
        if not 0 <= idx < len(container):
            raise self.fail("value_error", f"list index {int(index)} out of range")
        return idx

    def exec_for(self, stmt: ast.For) -> None:
        iterable = self.eval(stmt.iter)
        if not isinstance(iterable, (list, tuple)):
            raise self.fail("type_error", "for loop requires a list")
        target = stmt.target
        names = [name.id for name in target.elts] if isinstance(target, ast.Tuple) else None
        for item in iterable:
            self.tick()
            if names is None:
                self.vars[target.id] = item
            else:
                if not isinstance(item, (list, tuple)) or len(item) != len(names):
                    raise self.fail(
                        "type_error",
                        f"cannot unpack {digest_value(item)} into {len(names)} names",
                    )
                for name, sub in zip(names, item):
                    self.vars[name] = sub
            for inner in stmt.body:
                self.exec_stmt(inner)

    def exec_if(self, stmt: ast.If) -> None:
        # The branches of an elif chain cost no step of their own.
        body = None
        while body is None:
            if self.truthy(self.eval(stmt.test)):
                body = stmt.body
            elif (branch := elif_branch(stmt)) is not None:
                stmt = branch
            else:
                body = stmt.orelse
        for inner in body:
            self.exec_stmt(inner)

    def truthy(self, value) -> bool:
        if value is None:
            return False
        if isinstance(value, bool):
            return value
        if isinstance(value, float):
            return value != 0.0
        if isinstance(value, (str, list, tuple, dict)):
            return len(value) > 0
        return True

    # -- expressions ---------------------------------------------------------

    def eval(self, node) -> Any:
        self.tick()
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, str):
                return self.interpolate(value)
            if value is None or isinstance(value, bool):
                return value
            try:
                return float(value)
            except OverflowError:  # an integer literal past the largest float
                return math.inf
        if isinstance(node, ast.Name):
            if node.id not in self.vars:
                raise self.fail("undefined_name", f"name {node.id!r} is not defined")
            return self.vars[node.id]
        if isinstance(node, ast.List):
            return [self.eval(item) for item in node.elts]
        if isinstance(node, ast.Dict):
            out: dict = {}
            for key_expr, value_expr in zip(node.keys, node.values):
                key = self.eval(key_expr)
                if not isinstance(key, (str, float, bool)):
                    raise self.fail("type_error", "map keys must be strings or numbers")
                out[key] = self.eval(value_expr)
            return out
        if isinstance(node, ast.BinOp):
            return self.eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand)
            if not isinstance(operand, float) or isinstance(operand, bool):
                raise self.fail("type_error", "unary minus requires a number")
            return -operand
        if isinstance(node, ast.Compare):
            return self.eval_compare(node)
        if isinstance(node, ast.Subscript):
            return self.eval_subscript(node)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        raise self.fail("type_error", f"unknown expression {type(node).__name__}")

    def interpolate(self, string: str) -> str:
        chunks = []
        for kind, text in _split_interpolation(string):
            if kind == "lit":
                chunks.append(text)
            else:
                if text not in self.vars:
                    raise self.fail(
                        "undefined_name",
                        f"string interpolation references undefined name {text!r}",
                    )
                chunks.append(self.to_text(self.vars[text]))
        self.charge_chars(sum(map(len, chunks)))
        return "".join(chunks)

    def to_text(self, value) -> str:
        if isinstance(value, str):
            return value
        return digest_value(value)

    def eval_binop(self, node: ast.BinOp) -> Any:
        left = self.eval(node.left)
        right = self.eval(node.right)
        op = type(node.op)
        if op is ast.Add:
            if self._is_number(left) and self._is_number(right):
                return float(left) + float(right)
            if isinstance(left, str) and isinstance(right, str):
                self.charge_chars(len(left) + len(right))
                return left + right
            raise self.fail(
                "type_error",
                f"cannot add {digest_value(left)} and {digest_value(right)}",
            )
        if not (self._is_number(left) and self._is_number(right)):
            raise self.fail(
                "type_error",
                f"arithmetic requires numbers, got {digest_value(left)} "
                f"and {digest_value(right)}",
            )
        a, b = float(left), float(right)
        if op is ast.Sub:
            return a - b
        if op is ast.Mult:
            return a * b
        if b == 0.0:
            raise self.fail("division_by_zero", "division by zero")
        return a / b

    @staticmethod
    def _is_number(value) -> bool:
        return isinstance(value, float) and not isinstance(value, bool)

    def eval_compare(self, node: ast.Compare) -> bool:
        left = self.eval(node.left)
        right = self.eval(node.comparators[0])
        op = type(node.ops[0])
        if op is ast.Eq or op is ast.NotEq:
            # Lists a plan builds in a loop, or that hold themselves, can nest
            # deeper than Python compares.
            try:
                return left == right if op is ast.Eq else left != right
            except RecursionError:
                raise self.fail("value_error", "values nest too deeply to compare") from None
        ok = (self._is_number(left) and self._is_number(right)) or (
            isinstance(left, str) and isinstance(right, str)
        )
        if not ok:
            raise self.fail(
                "type_error",
                f"cannot order {digest_value(left)} and {digest_value(right)}",
            )
        if op is ast.Lt:
            return left < right
        if op is ast.LtE:
            return left <= right
        if op is ast.Gt:
            return left > right
        return left >= right

    def eval_subscript(self, node: ast.Subscript) -> Any:
        container = self.eval(node.value)
        index = self.eval(node.slice)
        if isinstance(container, dict):
            if not isinstance(index, (str, float, bool)):
                raise self.fail("type_error", "map keys must be strings or numbers")
            if index not in container:
                raise self.fail("value_error", f"map has no key {digest_value(index)}")
            return container[index]
        if isinstance(container, (list, tuple)):
            return container[self._list_index(container, index)]
        raise self.fail("type_error", "subscript needs a list or map")

    # -- builtins -------------------------------------------------------------

    def eval_call(self, node: ast.Call) -> Any:
        args = [self.eval(a) for a in node.args]
        kwargs = {keyword.arg: self.eval(keyword.value) for keyword in node.keywords}
        name = node.func.id

        if name == "emit":
            if len(args) != 1 or kwargs:
                raise self.fail("type_error", "emit takes exactly one argument")
            self.trace.emitted = args[0]
            raise _EmitSignal()

        result = self.call_builtin(name, args, kwargs)
        self.record_builtin(name, args if not kwargs else args + [kwargs], result)
        return result

    def call_builtin(self, name: str, args: list, kwargs: dict) -> Any:
        if name not in _EFFECTS:
            return self.pure_builtin(name, args, kwargs)
        if getattr(self.env, _EFFECTS[name][0]) is None:
            raise self.fail("builtin_unavailable", f"{name} is not available to this system")

        if name == "select_documents":
            docs = self.call_effect(name, *args, **kwargs)
            for doc in docs:
                self.trace.selected_docs[doc.doc_id] = None
            return list(docs)

        question = args[0] if args else kwargs.get("question")
        if name == "retrieve_relevant_pages":
            documents = args[1] if len(args) > 1 else kwargs.get("documents")
            if not isinstance(question, str):
                raise self.fail("type_error", "retrieve_relevant_pages needs a question string")
            pages = self.call_effect(name, question, documents)
            for page in pages:
                self.trace.retrieved_pages[page.ref] = None
            return list(pages)

        pages = args[1] if len(args) > 1 else kwargs.get("pages")
        if not isinstance(question, str) or not isinstance(pages, list):
            raise self.fail("type_error", "extract_value needs (question, pages)")
        return self.call_effect(name, question, pages)

    def call_effect(self, name: str, /, *args, **kwargs) -> Any:
        """Call an injected effect; a plan's keywords may be any name. A
        ``PlanRuntimeError`` passes through; any other exception fails the
        plan as the effect's kind."""
        field_name, kind, prefix = _EFFECTS[name]
        try:
            return getattr(self.env, field_name)(*args, **kwargs)
        except PlanRuntimeError:
            raise
        except Exception as exc:
            raise self.fail(kind, f"{prefix}{exc}")

    def pure_builtin(self, name: str, args: list, kwargs: dict) -> Any:
        if kwargs:
            raise self.fail("type_error", f"{name} takes no keyword arguments")

        if name in ("min", "max"):
            pick = min if name == "min" else max
            values = args[0] if len(args) == 1 and isinstance(args[0], (list, tuple)) else args
            if not values:
                raise self.fail("value_error", f"{name} of empty sequence")
            if not all(self._is_number(v) for v in values):
                raise self.fail("type_error", f"{name} requires numbers")
            return float(pick(values))

        if name == "sum":
            if len(args) != 1 or not isinstance(args[0], (list, tuple)):
                raise self.fail("type_error", "sum takes a list")
            if not all(self._is_number(v) for v in args[0]):
                raise self.fail("type_error", "sum requires numbers")
            return float(sum(args[0]))

        if name == "abs":
            if len(args) != 1 or not self._is_number(args[0]):
                raise self.fail("type_error", "abs requires a number")
            return abs(args[0])

        if name == "len":
            if len(args) != 1 or not isinstance(args[0], (str, list, tuple, dict)):
                raise self.fail("type_error", "len requires a string, list, or map")
            return float(len(args[0]))

        if name == "range":
            return self.builtin_range(args)

        if name == "zip":
            if not args or not all(isinstance(a, (list, tuple)) for a in args):
                raise self.fail("type_error", "zip requires lists")
            return [tuple(group) for group in zip(*args)]

        if name == "float":
            if len(args) != 1:
                raise self.fail("type_error", "float takes one argument")
            value = args[0]
            if self._is_number(value):
                return float(value)
            if isinstance(value, str):
                try:
                    return float(value.replace(",", ""))
                except ValueError:
                    raise self.fail(
                        "value_error", f"cannot convert {value!r} to a number"
                    )
            raise self.fail("type_error", f"cannot convert {digest_value(value)} to float")

        if name == "str":
            if len(args) != 1:
                raise self.fail("type_error", "str takes one argument")
            return self.to_text(args[0])

        if name in ("argmin", "argmax"):
            if len(args) != 1 or not isinstance(args[0], dict):
                raise self.fail("type_error", f"{name} requires a map")
            mapping = args[0]
            if not mapping:
                raise self.fail("value_error", f"{name} of empty map")
            if not all(self._is_number(v) for v in mapping.values()):
                raise self.fail("type_error", f"{name} requires numeric map values")
            best = (min if name == "argmin" else max)(mapping.values())
            winners = [k for k, v in mapping.items() if v == best]
            try:
                return min(winners)
            except TypeError:
                raise self.fail("type_error", f"{name} keys are not comparable")

        if name == "append":
            if len(args) != 2 or not isinstance(args[0], list):
                raise self.fail("type_error", "append takes (list, value)")
            args[0].append(args[1])
            return args[0]

        raise self.fail("type_error", f"unknown builtin {name!r}")  # pragma: no cover

    def builtin_range(self, args: list) -> list:
        if not 1 <= len(args) <= 3:
            raise self.fail("type_error", "range takes 1 to 3 arguments")
        for a in args:
            if not self._is_number(a) or not float(a).is_integer():
                raise self.fail("type_error", "range requires integer arguments")
        ints = [int(a) for a in args]
        if len(ints) == 1:
            start, stop, step = 0, ints[0], 1
        elif len(ints) == 2:
            start, stop, step = ints[0], ints[1], 1
        else:
            start, stop, step = ints
        if step == 0:
            raise self.fail("value_error", "range step must not be zero")
        length = max(0, (stop - start + (step - (1 if step > 0 else -1))) // step)
        if length > STEP_BUDGET:
            raise self.fail(
                "step_budget_exceeded",
                f"range of length {length} exceeds the step budget",
            )
        self.tick(int(length))
        return [float(v) for v in range(start, stop, step)]


def execute_plan(program: ast.Module, env: ExecEnv) -> PlanTrace:
    """Run a parsed plan; returns the trace of a completed (emitted) run.

    Raises PlanRuntimeError on budget exhaustion, runtime type errors,
    extraction failures, or completion without emit. The partial trace is
    attached to the error.
    """
    return _Interpreter(program, env).run()
