"""Differential and fuzz tests: the regex tokenizer against the reference
character-at-a-time reader, and typed errors from parse and extraction."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.featstore import extract_events
from repro.jsast.parser import ParseError, parse
from repro.jsast.tokenizer import TokenizeError, tokenize

from . import reference_tokenizer as reference

#: Characters where the two readers could part ways: the isspace()-only
#: separators \x1c-\x1f, the line terminators, Unicode digits (decimal or
#: not), non-ASCII letters, and every ASCII character that starts a token
#: or an escape.
SPECIAL = list(
    "\x1c\x1d\x1e\x1f\u2028\u2029\r\n\t \x0b\x0c\x85\xa0\u3000"
    "\u00b2\u00b9\u0661\u0662\u0967\u2460\u00e9\u03bb$_"
) + list(string.printable)

#: JavaScript fragments, so random text reaches deep into each token class.
FRAGMENTS = [
    "var ", "x", "return", "this", "true", "in", "0", "0x", "0X1f", "1e", "1e+", "2.",
    ".5", "1..a", "/", "/=", "//", "/*", "*/", "[", "]", "\\", "\\u00", "\\u0041",
    "\\x4", "\\x41", "'", '"', ")", "++", "--", "}", "\r\n", "\n", "1²",
    "١", "=", "(", ";", "e", "E", "+", "-",
]

arbitrary_text = st.text(alphabet=st.one_of(st.characters(), st.sampled_from(SPECIAL)), max_size=60)
js_like_text = st.lists(st.sampled_from(FRAGMENTS + SPECIAL), max_size=30).map("".join)


def _fields(tokens):
    return [
        (t.kind, t.value, t.raw, t.line, t.column, t.newline_before) for t in tokens
    ]


def assert_matches_reference(source):
    try:
        expected = _fields(reference.tokenize(source))
    except Exception:  # any failure of the reference is a TokenizeError here
        with pytest.raises(TokenizeError):
            tokenize(source)
        return
    assert _fields(tokenize(source)) == expected


def assert_typed_failures_only(source):
    try:
        parse(source)
    except (ParseError, TokenizeError):
        pass
    for unpack in (True, False):
        extract_events(source, unpack)


class TestMatchesReference:
    @given(arbitrary_text)
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_text(self, source):
        assert_matches_reference(source)

    @given(js_like_text)
    @settings(max_examples=400, deadline=None)
    def test_javascript_fragments(self, source):
        assert_matches_reference(source)

    @pytest.mark.parametrize(
        "source",
        [
            "x\x1c=\x1d1\x1e;\x1f",  # isspace() separators
            "a\u2028b\u2029c",  # Unicode line terminators
            "a /* x\r\ny */ b\u2028c",  # \r\n counts twice in a comment
            "a /* x\ny */ b\nc",  # columns after a comment keep the old line start
            "var ١ = 1٢;",  # Unicode decimal digits
            "0",  # EOF one column past a trailing lone 0
            "x = 10 / 2 / 1",
            "x = y / z / w",
            "return /re/g.test(s)",
            "a++ / 2",
            "'ab\\\ncd' + x",  # line continuation moves the line start
            "'\\x41\\u0042\\q\\0'",
            "1..toString()",
            "1e5e5",
        ],
    )
    def test_edge_cases(self, source):
        assert_matches_reference(source)

    @pytest.mark.parametrize(
        "source", ["var a = 1²;", "x = .²", "x = 1e¹", "x = 1.①", "x = 0x" + "f" * 300]
    )
    def test_numbers_float_rejects_are_tokenize_errors(self, source):
        with pytest.raises(Exception):
            reference.tokenize(source)
        with pytest.raises(TokenizeError):
            tokenize(source)


class TestTypedErrorsOnly:
    @given(arbitrary_text)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, source):
        assert_typed_failures_only(source)

    @given(js_like_text)
    @settings(max_examples=300, deadline=None)
    def test_javascript_fragments(self, source):
        assert_typed_failures_only(source)

    @pytest.mark.parametrize("source", ["var a = 1e999;", "eval(1e999 + '')", "x = -1e999"])
    def test_non_finite_numbers(self, source):
        assert_typed_failures_only(source)
