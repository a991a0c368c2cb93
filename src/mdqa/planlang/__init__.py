"""Restricted plan language: parser and sandboxed interpreter.

Model-emitted plans are parsed by Python's own parser into its syntax tree,
checked against a whitelist of node kinds (assignments, for loops,
conditionals, expressions, emit), and interpreted in-process. The only
side effects a plan can have are the three injected helpers
(select_documents, retrieve_relevant_pages, extract_value) and the emit
answer sink; everything else is pure and budgeted.
"""

from .parser import (
    BUILTIN_NAMES,
    PlanParseError,
    parse_plan,
)
from .interpreter import (
    ExecEnv,
    PageHandle,
    PlanRuntimeError,
    PlanTrace,
    execute_plan,
)

__all__ = [
    "BUILTIN_NAMES",
    "ExecEnv",
    "PageHandle",
    "PlanParseError",
    "PlanRuntimeError",
    "PlanTrace",
    "execute_plan",
    "parse_plan",
]
