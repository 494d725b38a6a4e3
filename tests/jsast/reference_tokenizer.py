"""Reference tokenizer: the character-at-a-time reader ``repro.jsast``
used before its regex tokenizer, kept verbatim as the differential-test
oracle for :mod:`repro.jsast.tokenizer`.

Wherever this reader returns tokens, the regex tokenizer must return the
same ``(kind, value, raw, line, column, newline_before)`` tuples; wherever
it raises anything (including a bare ``ValueError`` from ``float()`` on
``1²``), the regex tokenizer must raise ``TokenizeError``. Its quirks are
the specification: ``\r\n`` inside a block comment counts two lines, a
block comment leaves the line start where it was, and a lone ``0`` at the
very end of the source puts EOF one column further right.
"""

from __future__ import annotations

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

LINE_TERMINATORS = "\n\r  "



class TokenizeError(ValueError):
    """Raised when the source cannot be tokenized."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass
class Token:
    """One lexical token.

    ``kind`` is one of ``identifier``, ``keyword``, ``number``, ``string``,
    ``regex``, ``punct`` or ``eof``. ``value`` is the cooked value for
    strings/numbers and the raw text otherwise; ``raw`` is always the exact
    source slice.
    """

    kind: str
    value: object
    raw: str
    line: int
    column: int
    newline_before: bool = False

    def is_punct(self, *values: str) -> bool:
        """Whether this token is one of the given punctuators."""
        return self.kind == "punct" and self.raw in values

    def is_keyword(self, *values: str) -> bool:
        """Whether this token is one of the given keywords."""
        return self.kind == "keyword" and self.raw in values


def _is_identifier_start(ch: str) -> bool:
    if ch.isalpha() or ch in "$_":
        return True
    # Permissive non-ASCII identifiers, but never separators/whitespace.
    return ord(ch) > 127 and not ch.isspace() and ch not in LINE_TERMINATORS


def _is_identifier_part(ch: str) -> bool:
    if ch.isalnum() or ch in "$_":
        return True
    return ord(ch) > 127 and not ch.isspace() and ch not in LINE_TERMINATORS



class Tokenizer:
    """Single-pass tokenizer over a JavaScript source string."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.line_start = 0
        self._tokens: List[Token] = []
        self._newline_pending = False

    # -- public API --------------------------------------------------------

    def tokenize(self) -> List[Token]:
        """Tokenize the whole source, returning a list ending with EOF."""
        while True:
            token = self._next_token()
            self._tokens.append(token)
            if token.kind == "eof":
                return self._tokens

    # -- internals ---------------------------------------------------------

    @property
    def _column(self) -> int:
        return self.pos - self.line_start + 1

    def _error(self, message: str) -> TokenizeError:
        return TokenizeError(message, self.line, self._column)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _skip_whitespace_and_comments(self) -> None:
        src = self.source
        while self.pos < len(src):
            ch = src[self.pos]
            if ch in LINE_TERMINATORS:
                self._newline_pending = True
                if ch == "\r" and self._peek(1) == "\n":
                    self.pos += 1
                self.pos += 1
                self.line += 1
                self.line_start = self.pos
            elif ch.isspace():
                self.pos += 1
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(src) and src[self.pos] not in LINE_TERMINATORS:
                    self.pos += 1
            elif ch == "/" and self._peek(1) == "*":
                end = src.find("*/", self.pos + 2)
                if end < 0:
                    raise self._error("unterminated block comment")
                block = src[self.pos : end]
                newlines = sum(block.count(t) for t in LINE_TERMINATORS)
                if newlines:
                    self._newline_pending = True
                    self.line += newlines
                self.pos = end + 2
            else:
                return

    def _regex_allowed(self) -> bool:
        """Heuristic: may a ``/`` at the current position start a regex?

        A regex is allowed when the previous significant token cannot end an
        expression — i.e. after punctuation other than ``) ] }`` and
        postfix operators, after most keywords, or at the start of input.
        """
        for prev in reversed(self._tokens):
            if prev.kind in ("identifier", "number", "string", "regex"):
                return False
            if prev.kind == "keyword":
                # ``this`` and literal keywords end an expression.
                return prev.raw not in ("this", "true", "false", "null", "undefined")
            if prev.kind == "punct":
                if prev.raw in (")", "]", "}", "++", "--"):
                    return False
                return True
            return True
        return True

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        newline = self._newline_pending
        self._newline_pending = False
        line, column = self.line, self._column
        if self.pos >= len(self.source):
            return Token("eof", None, "", line, column, newline)

        ch = self.source[self.pos]
        if _is_identifier_start(ch):
            token = self._read_identifier()
        elif ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            token = self._read_number()
        elif ch in "'\"":
            token = self._read_string()
        elif ch == "/" and self._regex_allowed():
            token = self._read_regex()
        else:
            token = self._read_punctuator()
        token.newline_before = newline
        return token

    def _read_identifier(self) -> Token:
        start = self.pos
        line, column = self.line, self._column
        while self.pos < len(self.source) and _is_identifier_part(self.source[self.pos]):
            self.pos += 1
        raw = self.source[start : self.pos]
        if raw in KEYWORDS or raw in LITERAL_KEYWORDS:
            return Token("keyword", raw, raw, line, column)
        return Token("identifier", raw, raw, line, column)

    def _read_number(self) -> Token:
        start = self.pos
        line, column = self.line, self._column
        src = self.source
        if src[self.pos] == "0" and self._peek(1) in "xX":
            self.pos += 2
            while self.pos < len(src) and src[self.pos] in "0123456789abcdefABCDEF":
                self.pos += 1
            raw = src[start : self.pos]
            if len(raw) == 2:
                raise self._error("invalid hex literal")
            return Token("number", float(int(raw, 16)), raw, line, column)
        while self.pos < len(src) and src[self.pos].isdigit():
            self.pos += 1
        if self._peek() == ".":
            self.pos += 1
            while self.pos < len(src) and src[self.pos].isdigit():
                self.pos += 1
        if self._peek() in "eE":
            mark = self.pos
            self.pos += 1
            if self._peek() in "+-":
                self.pos += 1
            if not self._peek().isdigit():
                self.pos = mark
            else:
                while self.pos < len(src) and src[self.pos].isdigit():
                    self.pos += 1
        raw = src[start : self.pos]
        return Token("number", float(raw), raw, line, column)

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

    def _read_string(self) -> Token:
        src = self.source
        quote = src[self.pos]
        start = self.pos
        line, column = self.line, self._column
        self.pos += 1
        parts: List[str] = []
        while True:
            if self.pos >= len(src):
                raise self._error("unterminated string literal")
            ch = src[self.pos]
            if ch == quote:
                self.pos += 1
                break
            if ch in LINE_TERMINATORS:
                raise self._error("unterminated string literal")
            if ch == "\\":
                self.pos += 1
                esc = self._peek()
                if esc == "":
                    raise self._error("unterminated string literal")
                if esc in LINE_TERMINATORS:  # line continuation
                    self.pos += 1
                    self.line += 1
                    self.line_start = self.pos
                    continue
                if esc == "x":
                    hexpart = src[self.pos + 1 : self.pos + 3]
                    if len(hexpart) == 2 and all(c in "0123456789abcdefABCDEF" for c in hexpart):
                        parts.append(chr(int(hexpart, 16)))
                        self.pos += 3
                        continue
                    raise self._error("invalid \\x escape")
                if esc == "u":
                    hexpart = src[self.pos + 1 : self.pos + 5]
                    if len(hexpart) == 4 and all(c in "0123456789abcdefABCDEF" for c in hexpart):
                        parts.append(chr(int(hexpart, 16)))
                        self.pos += 5
                        continue
                    raise self._error("invalid \\u escape")
                parts.append(self._ESCAPES.get(esc, esc))
                self.pos += 1
                continue
            parts.append(ch)
            self.pos += 1
        raw = src[start : self.pos]
        return Token("string", "".join(parts), raw, line, column)

    def _read_regex(self) -> Token:
        src = self.source
        start = self.pos
        line, column = self.line, self._column
        self.pos += 1  # opening /
        in_class = False
        while True:
            if self.pos >= len(src) or src[self.pos] in LINE_TERMINATORS:
                raise self._error("unterminated regular expression")
            ch = src[self.pos]
            if ch == "\\":
                self.pos += 2
                continue
            if ch == "[":
                in_class = True
            elif ch == "]":
                in_class = False
            elif ch == "/" and not in_class:
                self.pos += 1
                break
            self.pos += 1
        pattern = src[start + 1 : self.pos - 1]
        flag_start = self.pos
        while self.pos < len(src) and _is_identifier_part(src[self.pos]):
            self.pos += 1
        flags = src[flag_start : self.pos]
        raw = src[start : self.pos]
        return Token("regex", (pattern, flags), raw, line, column)

    def _read_punctuator(self) -> Token:
        line, column = self.line, self._column
        for punct in PUNCTUATORS:
            if self.source.startswith(punct, self.pos):
                self.pos += len(punct)
                return Token("punct", punct, punct, line, column)
        raise self._error(f"unexpected character {self.source[self.pos]!r}")


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a token list terminated by an EOF token."""
    return Tokenizer(source).tokenize()
