"""Edge-case tests for the JavaScript front end (tokenizer + parser)."""

import sys

import pytest

from repro.jsast import nodes as N
from repro.jsast import parser as parser_module
from repro.jsast import tokenizer as tokenizer_module
from repro.jsast.parser import MAX_NESTING, ParseError, parse
from repro.jsast.tokenizer import TokenizeError, tokenize
from repro.jsast.walker import count_nodes, find_all, find_first


class TestTokenizerEdges:
    def test_unicode_line_separators_count_lines(self):
        tokens = tokenize("a b c")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]
        assert tokens[1].newline_before

    def test_regex_after_comma_and_operators(self):
        for prefix in ("f(x, ", "x = y || ", "return ", "a ? b : ", "[ ", "typeof "):
            tokens = tokenize(prefix + "/re/")
            assert any(t.kind == "regex" for t in tokens), prefix

    def test_division_after_literal_keywords(self):
        tokens = tokenize("true / 2")
        assert all(t.kind != "regex" for t in tokens)

    def test_division_after_this(self):
        tokens = tokenize("this / 2")
        assert all(t.kind != "regex" for t in tokens)

    def test_nested_block_comment_markers(self):
        # Block comments do not nest in JS: the first */ closes.
        tokens = tokenize("/* outer /* still outer */ x")
        assert tokens[0].kind == "identifier"
        assert tokens[0].value == "x"

    def test_identifier_with_unicode(self):
        tokens = tokenize("var café = 1;")
        assert tokens[1].value == "café"

    def test_dollar_identifiers(self):
        tokens = tokenize("$('#x').$each($$)")
        identifiers = [t.value for t in tokens if t.kind == "identifier"]
        assert "$" in identifiers and "$$" in identifiers

    def test_empty_regex_class(self):
        # An empty class [] never matches; tokenizer must not treat the
        # immediate ] as class end prematurely — standard behaviour is
        # that /[]/ swallows the ], so provide content to keep it simple.
        tokens = tokenize("/[a]/")
        assert tokens[0].kind == "regex"


class TestParserEdges:
    def test_deeply_nested_expressions(self):
        depth = 150
        source = "x = " + "(" * depth + "1" + ")" * depth + ";"
        program = parse(source)
        assert count_nodes(program) >= 3

    def test_long_statement_sequence(self):
        program = parse(";".join(f"var v{i} = {i}" for i in range(500)) + ";")
        assert len(program.body) == 500

    def test_chained_ternaries(self):
        node = parse("x = a ? 1 : b ? 2 : 3;").body[0].expression.right
        assert isinstance(node, N.ConditionalExpression)
        assert isinstance(node.alternate, N.ConditionalExpression)

    def test_comma_in_for_update(self):
        loop = parse("for (i = 0, j = 9; i < j; i++, j--) {}").body[0]
        assert isinstance(loop.update, N.SequenceExpression)

    def test_object_in_return_position(self):
        program = parse("function f() { return { a: 1 }; }")
        ret = program.body[0].body.body[0]
        assert isinstance(ret.argument, N.ObjectExpression)

    def test_function_as_argument(self):
        program = parse("setTimeout(function() { tick(); }, 100);")
        call = program.body[0].expression
        assert isinstance(call.arguments[0], N.FunctionExpression)

    def test_nested_member_new(self):
        node = parse("new a.b.C(1);").body[0].expression
        assert isinstance(node, N.NewExpression)
        assert node.callee.property.name == "C"

    def test_keyword_member_after_new_chain(self):
        node = parse("new Image().src;").body[0].expression
        assert isinstance(node, N.MemberExpression)

    def test_getter_setter_pair(self):
        node = parse("var o = { get x() { return 1; }, set x(v) { this._x = v; } };")
        props = node.body[0].declarations[0].init.properties
        assert [p.kind for p in props] == ["get", "set"]

    def test_get_as_plain_key(self):
        node = parse("var o = { get: 1, set: 2 };").body[0].declarations[0].init
        assert [p.key.name for p in node.properties] == ["get", "set"]

    def test_in_operator_needs_parens_in_for_init(self):
        # ES5's NoIn grammar: a bare `in` in a for-initialiser is a parse
        # error; parenthesised it is fine. Our parser matches both sides.
        with pytest.raises(ParseError):
            parse("for (var x = 'k' in o ? 1 : 0; x < 2; x++) {}")
        program = parse("for (var x = ('k' in o) ? 1 : 0; x < 2; x++) {}")
        assert program.body

    def test_error_has_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse("var = 5;")
        assert "line" in str(excinfo.value)

    def test_unterminated_block_error(self):
        with pytest.raises(ParseError):
            parse("function f() { var a = 1;")

    def test_garbage_rejected(self):
        with pytest.raises((ParseError, TokenizeError)):
            parse("### not js ###")


def _nested(opener: str, closer: str, depth: int) -> str:
    return "x=" + opener * depth + "1" + closer * depth


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


#: Nesting shapes that cost four frames per counted level (the most).
WORST_SHAPES = [("(", ")"), ("[", "]"), ("f(", ")"), ("a[", "]")]


class TestNestingCap:
    @pytest.mark.parametrize(
        "opener, closer",
        WORST_SHAPES + [("{a:", "}"), ("function(){return ", "}"), ("new (", ")"), ("!", "")],
    )
    def test_nesting_past_the_cap_is_a_parse_error(self, opener, closer):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse(_nested(opener, closer, MAX_NESTING + 1))

    def test_deep_script_is_a_parse_error_not_a_recursion_error(self):
        with pytest.raises(ParseError):
            parse("var x = " + "[" * 20_000 + "1" + "]" * 20_000 + ";")

    def test_parse_leaves_the_recursion_limit_alone(self, monkeypatch):
        seen = []

        def recording_tokenize(source):
            seen.append(sys.getrecursionlimit())
            return tokenizer_module.tokenize(source)

        monkeypatch.setattr(parser_module, "tokenize", recording_tokenize)
        parse("var x = [[1]];")
        assert seen == [sys.getrecursionlimit()]

    @pytest.mark.parametrize("opener, closer", WORST_SHAPES)
    def test_a_parse_at_the_cap_fits_the_default_recursion_limit(self, opener, closer):
        # ``x=`` takes three levels: the statement and two assignments.
        source = _nested(opener, closer, MAX_NESTING - 3)
        callers = 300  # a test runner or a serve thread, with room to spare

        def descend(frames):
            return descend(frames - 1) if frames > 0 else parse(source)

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            program = descend(callers - _stack_depth())
        finally:
            sys.setrecursionlimit(limit)
        assert isinstance(program.body[0].expression, N.AssignmentExpression)


class TestWalkerHelpers:
    def test_find_all_by_type(self):
        program = parse("a(); b(); c();")
        calls = find_all(program, lambda n: isinstance(n, N.CallExpression))
        assert len(calls) == 3

    def test_find_first_preorder(self):
        program = parse("outer(inner());")
        first = find_first(program, lambda n: isinstance(n, N.CallExpression))
        assert first.callee.name == "outer"

    def test_find_first_none(self):
        program = parse("var a;")
        assert find_first(program, lambda n: isinstance(n, N.ForStatement)) is None
