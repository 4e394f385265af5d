"""The seed TBQL lexer loop, frozen as a differential oracle.

The shipped :class:`repro.tbql.lexer.Lexer` walks the source with one
``finditer`` whose last alternative catches any character no token
matches.  The seed anchored one ``match`` per token instead and raised
when none matched.  Both must produce the same ``(kind, text, line,
column)`` tokens and the same error message, line and column.

The body below is the seed's ``Lexer.tokens`` verbatim, returning plain
tuples.  Test-only — nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import re

from repro.errors import TBQLSyntaxError
from repro.tbql.diagnostics import make_diagnostic
from repro.tbql.lexer import KEYWORDS

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|\#[^\n]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<symbol>~>|->|&&|\|\||!=|<=|>=|[=!<>\[\]\(\)\{\},\.\-~\*/:%])
""", re.VERBOSE)


def seed_tokens(source: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, column)`` of every token of ``source``."""
    tokens: list[tuple[str, str, int, int]] = []
    index = 0
    line = 1
    line_start = 0
    while index < len(source):
        match = _TOKEN_RE.match(source, index)
        if match is None:
            column = index - line_start + 1
            message = f"unexpected character {source[index]!r}"
            raise TBQLSyntaxError(
                message, line, column,
                diagnostic=make_diagnostic(source, message, line,
                                           column))
        text = match.group()
        column = match.start() - line_start + 1
        group = match.lastgroup
        if group in ("ws", "comment"):
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rfind("\n") + 1
        elif group == "ident":
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append((kind, text, line, column))
        elif group == "number":
            tokens.append(("number", text, line, column))
        elif group == "string":
            tokens.append(("string", text, line, column))
        else:
            tokens.append(("symbol", text, line, column))
        index = match.end()
    tokens.append(("eof", "", line, len(source) - line_start + 1))
    return tokens


__all__ = ["seed_tokens"]
