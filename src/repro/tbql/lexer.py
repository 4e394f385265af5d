"""Lexer for TBQL.

The paper builds its TBQL parser with ANTLR 4; this reproduction uses a
hand-written lexer + recursive-descent parser producing the same language
(Grammar 1).  The lexer tracks line/column positions for error messages.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import TBQLSyntaxError
from .diagnostics import make_diagnostic

#: Keywords of the language.  Operation names (read, write, ...) are *not*
#: keywords: they are ordinary identifiers interpreted by the parser, so new
#: operation types do not require lexer changes.
KEYWORDS = {
    "proc", "file", "ip", "as", "with", "return", "distinct", "before",
    "after", "within", "from", "to", "at", "last", "not", "in",
    # v2 operator families: temporal sequence, aggregation.
    "then", "count", "group", "by", "top",
}

#: One alternative per token kind, named after it; ``error`` catches any
#: character no token starts with, so ``finditer`` walks every position.
_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|\#[^\n]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<symbol>~>|->|&&|\|\||!=|<=|>=|[=!<>\[\]\(\)\{\},\.\-~\*/:%])
  | (?P<error>(?s:.))
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str      # 'keyword', 'ident', 'number', 'string', 'symbol', 'eof'
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


class Lexer:
    """Converts TBQL source text into a token stream."""

    def __init__(self, source: str) -> None:
        self.source = source

    def tokens(self) -> list[Token]:
        tokens: list[Token] = []
        append = tokens.append
        line = 1
        line_start = 0
        source = self.source
        for match in _TOKEN_RE.finditer(source):
            kind = match.lastgroup
            text = match.group()
            if kind == "ws" or kind == "comment":
                if "\n" in text:
                    line += text.count("\n")
                    line_start = match.start() + text.rfind("\n") + 1
                continue
            column = match.start() - line_start + 1
            if kind == "ident":
                if text in KEYWORDS:
                    kind = "keyword"
            elif kind == "error":
                message = f"unexpected character {text!r}"
                raise TBQLSyntaxError(
                    message, line, column,
                    diagnostic=make_diagnostic(source, message, line,
                                               column))
            append(Token(kind, text, line, column))
        append(Token("eof", "", line, len(source) - line_start + 1))
        return tokens


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper returning the token list for ``source``."""
    return Lexer(source).tokens()


def unescape_string(raw: str) -> str:
    """Strip quotes and process escapes of a TBQL string literal."""
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


__all__ = ["KEYWORDS", "Token", "Lexer", "tokenize", "unescape_string"]
