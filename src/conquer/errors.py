"""Error types for the ConQuer-92 engine.

Every error carries the pipeline stage it was raised in, so the CLI can
prefix diagnostics with where things went wrong (lex/parse/type/translate/
eval/...).
"""

from __future__ import annotations

from typing import Any

# the most characters of a value that an error message shows
SHOWN_CHARS = 80


def shown(value: Any) -> str:
    """``value`` as an error message shows it: its ``repr``, cut short past
    ``SHOWN_CHARS`` characters, or only its type's name when it has no
    ``repr`` (an int of more than 4300 digits, or nesting too deep to
    write)."""
    try:
        text = repr(value)
    except (ValueError, RecursionError):
        return f"<{type(value).__name__}>"
    return text if len(text) <= SHOWN_CHARS else text[: SHOWN_CHARS - 3] + "..."


class ConquerError(Exception):
    stage = "general"

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:
        pos = ""
        if self.line is not None:
            pos = f" at {self.line}:{self.column}" if self.column is not None else f" at line {self.line}"
        return f"[{self.stage}] {self.message}{pos}"


class SchemaError(ConquerError):
    stage = "schema"


class PopulationError(ConquerError):
    stage = "population"


class LexError(ConquerError):
    stage = "lex"


class ParseError(ConquerError):
    stage = "parse"


class AmbiguityError(ConquerError):
    """All interpretations structurally empty, or ambiguity under a strict policy."""

    stage = "parse"

    def __init__(self, message: str, alternatives: list[str] | None = None):
        super().__init__(message)
        self.alternatives = alternatives or []


class TypingError(ConquerError):
    stage = "type"


class TranslateError(ConquerError):
    stage = "translate"


class MacroError(ConquerError):
    stage = "translate"


class EvalError(ConquerError):
    stage = "eval"


class VerbaliseError(ConquerError):
    stage = "verbalise"
