"""The one-pass TBQL lexer against the frozen seed loop.

``Lexer.tokens`` walks the source with one ``finditer`` whose last
alternative catches any character no token starts with; the seed matched
one token at a time and raised when nothing matched
(``tests/reference/tbql_lexer_seed.py``).  Over TBQL text, junk
characters, newlines, comments and unterminated strings, both must give
the same ``(kind, text, line, column)`` tokens, or the same error
message, line, column and diagnostic.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TBQLSyntaxError
from repro.tbql.lexer import Token, tokenize

from .reference.tbql_lexer_seed import seed_tokens
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS

#: Fragments TBQL text is made of, and some it must reject.
FRAGMENTS = [
    "proc", "file", "ip", " p1", "f", "read", "write", "as", "evt1",
    "with", "before", "then[1-5 min]", "return", "distinct", "count()",
    "group by", "top 3", "and not", "->", "~>", "[", "]", "(", ")", "{",
    "}", ",", ".", "=", "!=", "<=", ">=", "&&", "||", "%", "*", "/", ":",
    "42", "3.14", "7.", '"%/bin/tar%"', '"a\\"b"', '"\\\\"', '"open',
    '"line\nbreak"', '"x\\\n"', "// comment", "# comment", "\n", "\r\n",
    "\t", " ", "  \n  ", "@", "$", "?", ";", "'", "é", " ", "\x0b",
    "\\", "`", "^",
]

texts = st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join) | \
    st.text(max_size=60)


def outcome(lex, source: str):
    try:
        return [tuple(token) for token in lex(source)]
    except TBQLSyntaxError as error:
        return ("error", str(error), error.line, error.column,
                error.diagnostic)


@settings(max_examples=1000, deadline=None)
@given(texts)
def test_tokens_and_errors_match_the_seed(source):
    assert outcome(tokenize, source) == outcome(seed_tokens, source)


def test_corpus_tokens_match_the_seed():
    for text in EQUIVALENCE_CORPUS:
        tokens = tokenize(text)
        assert all(isinstance(token, Token) for token in tokens)
        assert [tuple(token) for token in tokens] == seed_tokens(text)


def test_error_positions():
    for source, line, column in [('proc p["open', 1, 8),
                                 ("proc p\n  read @", 2, 8),
                                 ("// x\n# y\n\n  $", 4, 3),
                                 ('"a\\\nb"', 1, 1)]:
        assert outcome(tokenize, source) == outcome(seed_tokens, source)
        assert outcome(tokenize, source)[2:4] == (line, column)
