"""Tokenizer for the ES5-subset JavaScript parser.

Produces a stream of :class:`Token` objects with enough context for the
parser to honour automatic semicolon insertion (each token records whether
a line terminator preceded it) and to disambiguate regular-expression
literals from division operators (the classic JS lexer ambiguity).

Each token class is one compiled ``re`` pattern, joined into a master
pattern that also swallows the horizontal whitespace before the token, so
the Python loop runs once per token rather than once per character. Only
the previous token decides whether ``/`` starts a regular expression, so
the loop switches between two master patterns: one where ``/`` may open a
regex literal and one where it is always division.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

KEYWORDS = frozenset(
    """break case catch continue debugger default delete do else finally
    for function if in instanceof new return switch this throw try typeof
    var void while with""".split()
)

# Reserved literal words are tokenized distinctly so the parser can build
# boolean/null Literal nodes directly.
LITERAL_KEYWORDS = frozenset({"true", "false", "null", "undefined"})

PUNCTUATORS = [
    ">>>=",
    "===",
    "!==",
    ">>>",
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "<<",
    ">>",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "!",
    "~",
    "?",
    ":",
    "=",
    ".",
]

LINE_TERMINATORS = "\n\r\u2028\u2029"


class TokenizeError(ValueError):
    """Raised when the source cannot be tokenized."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(slots=True)
class Token:
    """One lexical token.

    ``kind`` is one of ``identifier``, ``keyword``, ``number``, ``string``,
    ``regex``, ``punct`` or ``eof``. ``value`` is the cooked value for
    strings/numbers and the raw text otherwise; ``raw`` is always the exact
    source slice. A punctuator's or keyword's ``raw`` is never the ``raw``
    of a token of another kind, so the parser may test ``raw`` alone.
    """

    kind: str
    value: object
    raw: str
    line: int
    column: int
    newline_before: bool = False


# -- token-class patterns ------------------------------------------------------
#
# Character classes mirror the ``str`` predicates the grammar is defined by:
# on ``str`` patterns ``\s`` matches exactly ``str.isspace()`` (which holds
# for \x1c-\x1f as well as the Unicode spaces) and ``\d`` exactly
# ``str.isdecimal()``. An identifier character is an ASCII letter, ``$``,
# ``_`` (or, after the first, an ASCII digit), or any non-ASCII character
# that is not whitespace -- written as one negated class.

_LT = "\\n\\r\\u2028\\u2029"
_HSPACE = rf"[^\S{_LT}]*"
_IDENT = (
    r"[^\x00-\x23\x25-\x40\x5b-\x5e\x60\x7b-\x7f\s]"
    r"[^\x00-\x23\x25-\x2f\x3a-\x40\x5b-\x5e\x60\x7b-\x7f\s]*"
)
_IDENT_PART = r"[^\x00-\x23\x25-\x2f\x3a-\x40\x5b-\x5e\x60\x7b-\x7f\s]*"
_HEX = r"0[xX][0-9a-fA-F]*"
_DECIMAL = r"(?:[0-9]\d*(?:\.\d*)?|\.\d+)(?P<exp>[eE][+-]?\d+)?"
_STRING = (
    rf'"[^"\\{_LT}]*(?:\\[\s\S][^"\\{_LT}]*)*"'
    rf"|'[^'\\{_LT}]*(?:\\[\s\S][^'\\{_LT}]*)*'"
)
_REGEX = (
    rf"/(?:[^\\/\[{_LT}]|\\[\s\S]|\[(?:[^\\\]{_LT}]|\\[\s\S])*\])*/" + _IDENT_PART
)
# Longest punctuator first within each leading character, which is the
# order PUNCTUATORS lists them in.
_PUNCT = (
    r">>>=|>>>|>>=|>>|>=|<<=|<<|<=|===|==|!==|!=|&&|&=|\|\||\|=|\+\+|\+=|--|-="
    r"|\*=|/=|%=|\^=|[{}()\[\];,<>+\-*/%&|^!~?:=.]"
)


def _master(regex_allowed: bool) -> "re.Pattern[str]":
    alternatives = [
        rf"(?P<nl>\r\n?|[\n\u2028\u2029])",
        r"(?P<comment>//[^\n\r\u2028\u2029]*)",
        r"(?P<block>/\*)",
        rf"(?P<ident>{_IDENT})",
        rf"(?P<hex>{_HEX})",
        rf"(?P<number>{_DECIMAL})",
        rf"(?P<string>{_STRING})",
        r"(?P<badstring>[\"'])",
    ]
    if regex_allowed:
        alternatives += [rf"(?P<regex>{_REGEX})", r"(?P<badregex>/)"]
    alternatives += [rf"(?P<punct>{_PUNCT})", r"(?P<bad>[\s\S])", r"(?P<eof>)"]
    return re.compile(_HSPACE + "(?:" + "|".join(alternatives) + ")")


_REGEX_TOKEN = _master(regex_allowed=True)
_DIVISION_TOKEN = _master(regex_allowed=False)

_ESCAPE = re.compile(r"\\(?:x([0-9a-fA-F]{2})|u([0-9a-fA-F]{4})|([\s\S]))")
_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "'": "'",
    '"': '"',
    "\\": "\\",
    "/": "/",
}

_ALL_KEYWORDS = KEYWORDS | LITERAL_KEYWORDS
#: Tokens after which ``/`` is division: the ones that can end an expression.
_EXPRESSION_END_KEYWORDS = frozenset({"this", "true", "false", "null", "undefined"})
_EXPRESSION_END_PUNCTS = frozenset({")", "]", "}", "++", "--"})


def _cook_string(raw: str, line: int, column: int):
    """A string literal's value, and the line continuations inside it.

    Returns ``(value, continuations, offset)`` where ``offset`` is the index
    in ``raw`` just past the last continuation's line terminator.
    """
    continuations = 0
    offset = 0

    def escape(match: "re.Match[str]") -> str:
        nonlocal continuations, offset
        hex2, hex4, char = match.groups()
        if hex2 is not None:
            return chr(int(hex2, 16))
        if hex4 is not None:
            return chr(int(hex4, 16))
        if char in LINE_TERMINATORS:
            continuations += 1
            offset = match.end()
            return ""
        if char == "x" or char == "u":
            raise TokenizeError(f"invalid \\{char} escape", line, column)
        return _ESCAPES.get(char, char)

    value = _ESCAPE.sub(escape, raw[1:-1])
    return value, continuations, offset + 1 if continuations else 0


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a token list terminated by an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    regex_match = _REGEX_TOKEN.match
    division_match = _DIVISION_TOKEN.match
    all_keywords = _ALL_KEYWORDS
    end_keywords = _EXPRESSION_END_KEYWORDS
    end_puncts = _EXPRESSION_END_PUNCTS
    pos = 0
    line = 1
    line_start = 0
    newline = False
    regex_allowed = True
    while True:
        match = (regex_match if regex_allowed else division_match)(source, pos)
        kind = match.lastgroup
        start, pos = match.span(kind)
        if kind == "punct":
            raw = source[start:pos]
            if raw == "." and source[pos : pos + 1].isdigit():
                # ``.`` before a digit \d does not match (say ``.²``) reads as
                # a number that float() rejects.
                raise TokenizeError("invalid number", line, start - line_start + 1)
            append(Token("punct", raw, raw, line, start - line_start + 1, newline))
            regex_allowed = raw not in end_puncts
        elif kind == "ident":
            raw = source[start:pos]
            if raw in all_keywords:
                append(Token("keyword", raw, raw, line, start - line_start + 1, newline))
                regex_allowed = raw not in end_keywords
            else:
                append(Token("identifier", raw, raw, line, start - line_start + 1, newline))
                regex_allowed = False
        elif kind == "nl":
            line += 1
            line_start = pos
            newline = True
            continue
        elif kind == "string":
            raw = source[start:pos]
            column = start - line_start + 1
            if "\\" in raw:
                value, continuations, offset = _cook_string(raw, line, column)
                append(Token("string", value, raw, line, column, newline))
                if continuations:
                    line += continuations
                    line_start = start + offset
            else:
                append(Token("string", raw[1:-1], raw, line, column, newline))
            regex_allowed = False
        elif kind == "number":
            raw = source[start:pos]
            column = start - line_start + 1
            following = source[pos : pos + 3]
            if following[:1].isdigit() or (
                match.group("exp") is None
                and following[:1] in ("e", "E")
                and (
                    following[1:2].isdigit()
                    or (following[1:2] in ("+", "-") and following[2:3].isdigit())
                )
            ):
                # A digit that \d does not match (say ``1²``) continues the
                # number lexically, but float() rejects it.
                raise TokenizeError("invalid number", line, column)
            append(Token("number", float(raw), raw, line, column, newline))
            if raw == "0" and pos == len(source):
                # A lone ``0`` ending the source is read as a digitless hex
                # prefix that runs one past the end; the EOF column says so.
                append(Token("eof", None, "", line, pos - line_start + 2, False))
                return tokens
            regex_allowed = False
        elif kind == "comment":
            continue
        elif kind == "eof":
            append(Token("eof", None, "", line, pos - line_start + 1, newline))
            return tokens
        elif kind == "regex":
            raw = source[start:pos]
            close = raw.rindex("/")
            value = (raw[1:close], raw[close + 1 :])
            append(Token("regex", value, raw, line, start - line_start + 1, newline))
            regex_allowed = False
        elif kind == "hex":
            raw = source[start:pos]
            column = start - line_start + 1
            if len(raw) == 2:
                raise TokenizeError("invalid hex literal", line, column)
            try:
                value = float(int(raw, 16))
            except OverflowError:
                raise TokenizeError("hex literal out of range", line, column) from None
            append(Token("number", value, raw, line, column, newline))
            regex_allowed = False
        elif kind == "block":
            end = source.find("*/", pos)
            if end < 0:
                raise TokenizeError("unterminated block comment", line, start - line_start + 1)
            # Every terminator counts, ``\r\n`` as two, and the line start is
            # kept: columns after a multi-line comment are counted from the
            # last line start outside it.
            lines = sum(source.count(t, pos, end) for t in LINE_TERMINATORS)
            if lines:
                line += lines
                newline = True
            pos = end + 2
            continue
        elif kind == "badstring":
            raise TokenizeError("unterminated string literal", line, start - line_start + 1)
        elif kind == "badregex":
            raise TokenizeError("unterminated regular expression", line, start - line_start + 1)
        else:
            raise TokenizeError(
                f"unexpected character {source[start]!r}", line, start - line_start + 1
            )
        newline = False
