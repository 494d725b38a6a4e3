"""Recursive-descent parser for an ES5 subset of JavaScript.

Covers everything the anti-adblock corpus exercises: functions (declaration
and expression), prototypes, object/array literals, regex literals, all
control flow (``if``/``for``/``for-in``/``while``/``do``/``switch``/``try``),
the full operator set with correct precedence and associativity, ``new``
with and without arguments, and automatic semicolon insertion.

The produced tree uses the ESTree-flavoured nodes from
:mod:`repro.jsast.nodes`, which is what the paper's static feature
extraction is defined over.

The parser compares tokens by ``raw`` alone: a punctuator's or keyword's
raw text is never the raw text of a token of another kind (identifiers are
never keywords, string raws keep their quotes, and the EOF raw is empty).
"""

from __future__ import annotations

from typing import List, Optional

from . import nodes as N
from .tokenizer import Token, tokenize


class ParseError(ValueError):
    """Raised when the token stream cannot be parsed."""

    def __init__(self, message: str, token: Token) -> None:
        where = f"line {token.line}, column {token.column}"
        shown = token.raw or "<eof>"
        super().__init__(f"{message} near {shown!r} ({where})")
        self.token = token


#: Deepest nesting ``parse`` accepts; deeper input raises ParseError.
#: A level is counted on entry to ``parse_statement``, ``parse_assignment``,
#: ``_parse_new``, ``_parse_object``, ``_parse_function_rest`` and each
#: prefix operator. Every cycle through the grammar passes one of them, and
#: at most four Python frames separate one counted entry from the next (for
#: instance parse_assignment, _parse_binary, _parse_unary and
#: parse_expression for a parenthesised expression). A parse at the cap
#: therefore needs at most 4 * 160 + 8 frames, leaving about 350 of the
#: interpreter's default recursion limit of 1,000 to its callers (a serve
#: thread, a test runner). The perfbench pool, the §5 corpus and the
#: script generators nest at most 19 levels.
MAX_NESTING = 160

# Binary operator precedence, ESTree operator strings. Higher binds tighter.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "===": 6,
    "!==": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "instanceof": 7,
    "in": 7,
    "<<": 8,
    ">>": 8,
    ">>>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_ASSIGNMENT_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", ">>>=", "&=", "|=", "^="}

_PREFIX_OPS = {"+", "-", "!", "~", "typeof", "void", "delete", "++", "--"}

#: Callees whose calls the unpacker may act on (see ``Program.dynamic_calls``).
_DYNAMIC_CALLEES = frozenset({"eval", "Function", "setTimeout", "setInterval"})
_DYNAMIC_METHODS = frozenset({"eval", "write", "writeln"})


class Parser:
    """Parses a token list into a :class:`~repro.jsast.nodes.Program`."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.index = 0
        #: The token at the cursor.
        self.current = tokens[0]
        self.depth = 0
        self.dynamic_calls: List[N.CallExpression] = []

    # -- token helpers -------------------------------------------------------

    def _peek(self, offset: int = 1) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.index += 1
            self.current = self.tokens[self.index]
        return token

    def _expect_punct(self, value: str) -> Token:
        if self.current.raw != value:
            raise ParseError(f"expected {value!r}", self.current)
        return self._advance()

    def _expect_keyword(self, value: str) -> Token:
        if self.current.raw != value:
            raise ParseError(f"expected keyword {value!r}", self.current)
        return self._advance()

    def _eat_punct(self, value: str) -> bool:
        if self.current.raw == value:
            self._advance()
            return True
        return False

    def _consume_semicolon(self) -> None:
        """Consume a statement terminator, honouring ASI."""
        token = self.current
        if token.raw == ";":
            self._advance()
            return
        if token.kind == "eof" or token.raw == "}" or token.newline_before:
            return
        raise ParseError("expected ';'", token)

    def _nest(self) -> int:
        """Enter one nesting level; returns the level to restore on exit."""
        depth = self.depth
        if depth >= MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.current)
        self.depth = depth + 1
        return depth

    # -- entry point ---------------------------------------------------------

    def parse_program(self) -> N.Program:
        """Parse the whole token stream into a Program."""
        body: List[N.Node] = []
        while self.current.kind != "eof":
            body.append(self.parse_statement())
        program = N.Program(body=body)
        program.dynamic_calls = self.dynamic_calls
        return program

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> N.Node:
        """Parse one statement (dispatching on the leading token)."""
        depth = self._nest()
        token = self.current
        handler = _STATEMENT_PARSERS.get(token.raw)
        if handler is not None:
            statement = handler(self)
        elif token.kind == "identifier" and self.tokens[self.index + 1].raw == ":":
            label = N.Identifier(name=self._advance().value)
            self._advance()  # ':'
            statement = N.LabeledStatement(label=label, body=self.parse_statement())
        else:
            expression = self.parse_expression()
            self._consume_semicolon()
            statement = N.ExpressionStatement(expression=expression)
        self.depth = depth
        return statement

    def parse_block(self) -> N.BlockStatement:
        """Parse a { ... } statement list."""
        self._expect_punct("{")
        body: List[N.Node] = []
        while self.current.raw != "}":
            if self.current.kind == "eof":
                raise ParseError("unterminated block", self.current)
            body.append(self.parse_statement())
        self._advance()
        return N.BlockStatement(body=body)

    def _parse_empty(self) -> N.EmptyStatement:
        self._advance()
        return N.EmptyStatement()

    def _parse_variable_statement(self) -> N.VariableDeclaration:
        declaration = self._parse_variable_declaration()
        self._consume_semicolon()
        return declaration

    def _parse_variable_declaration(self, no_in: bool = False) -> N.VariableDeclaration:
        self._expect_keyword("var")
        declarators = [self._parse_variable_declarator(no_in)]
        while self._eat_punct(","):
            declarators.append(self._parse_variable_declarator(no_in))
        return N.VariableDeclaration(declarations=declarators, kind="var")

    def _parse_variable_declarator(self, no_in: bool) -> N.VariableDeclarator:
        name = self._parse_identifier()
        init = None
        if self._eat_punct("="):
            init = self.parse_assignment(no_in=no_in)
        return N.VariableDeclarator(id=name, init=init)

    def _parse_identifier(self) -> N.Identifier:
        token = self.current
        if token.kind != "identifier":
            raise ParseError("expected identifier", token)
        self._advance()
        return N.Identifier(name=token.value)

    def _parse_function_declaration(self) -> N.FunctionDeclaration:
        self._expect_keyword("function")
        name = self._parse_identifier()
        params, body = self._parse_function_rest()
        return N.FunctionDeclaration(id=name, params=params, body=body)

    def _parse_function_rest(self) -> tuple:
        depth = self._nest()
        self._expect_punct("(")
        params: List[N.Identifier] = []
        if self.current.raw != ")":
            params.append(self._parse_identifier())
            while self._eat_punct(","):
                params.append(self._parse_identifier())
        self._expect_punct(")")
        body = self.parse_block()
        self.depth = depth
        return params, body

    def _parse_if(self) -> N.IfStatement:
        self._expect_keyword("if")
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        consequent = self.parse_statement()
        alternate = None
        if self.current.raw == "else":
            self._advance()
            alternate = self.parse_statement()
        return N.IfStatement(test=test, consequent=consequent, alternate=alternate)

    def _parse_for(self) -> N.Node:
        self._expect_keyword("for")
        self._expect_punct("(")
        init: Optional[N.Node] = None
        if self.current.raw == ";":
            self._advance()
        elif self.current.raw == "var":
            init = self._parse_variable_declaration(no_in=True)
            if self.current.raw == "in":
                self._advance()
                right = self.parse_expression()
                self._expect_punct(")")
                return N.ForInStatement(left=init, right=right, body=self.parse_statement())
            self._expect_punct(";")
        else:
            init_expr = self.parse_expression(no_in=True)
            if self.current.raw == "in":
                self._advance()
                right = self.parse_expression()
                self._expect_punct(")")
                return N.ForInStatement(left=init_expr, right=right, body=self.parse_statement())
            init = N.ExpressionStatement(expression=init_expr)
            self._expect_punct(";")
        test = None if self.current.raw == ";" else self.parse_expression()
        self._expect_punct(";")
        update = None if self.current.raw == ")" else self.parse_expression()
        self._expect_punct(")")
        return N.ForStatement(init=init, test=test, update=update, body=self.parse_statement())

    def _parse_while(self) -> N.WhileStatement:
        self._expect_keyword("while")
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        return N.WhileStatement(test=test, body=self.parse_statement())

    def _parse_do_while(self) -> N.DoWhileStatement:
        self._expect_keyword("do")
        body = self.parse_statement()
        self._expect_keyword("while")
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        self._eat_punct(";")
        return N.DoWhileStatement(body=body, test=test)

    def _parse_return(self) -> N.ReturnStatement:
        self._expect_keyword("return")
        argument = None
        token = self.current
        if not (
            token.raw == ";"
            or token.raw == "}"
            or token.kind == "eof"
            or token.newline_before
        ):
            argument = self.parse_expression()
        self._consume_semicolon()
        return N.ReturnStatement(argument=argument)

    def _parse_jump_label(self) -> Optional[N.Identifier]:
        self._advance()  # break / continue
        label = None
        token = self.current
        if token.kind == "identifier" and not token.newline_before:
            label = self._parse_identifier()
        self._consume_semicolon()
        return label

    def _parse_break(self) -> N.BreakStatement:
        return N.BreakStatement(label=self._parse_jump_label())

    def _parse_continue(self) -> N.ContinueStatement:
        return N.ContinueStatement(label=self._parse_jump_label())

    def _parse_throw(self) -> N.ThrowStatement:
        self._expect_keyword("throw")
        argument = self.parse_expression()
        self._consume_semicolon()
        return N.ThrowStatement(argument=argument)

    def _parse_try(self) -> N.TryStatement:
        self._expect_keyword("try")
        block = self.parse_block()
        handler = None
        finalizer = None
        if self.current.raw == "catch":
            self._advance()
            self._expect_punct("(")
            param = self._parse_identifier()
            self._expect_punct(")")
            handler = N.CatchClause(param=param, body=self.parse_block())
        if self.current.raw == "finally":
            self._advance()
            finalizer = self.parse_block()
        if handler is None and finalizer is None:
            raise ParseError("try requires catch or finally", self.current)
        return N.TryStatement(block=block, handler=handler, finalizer=finalizer)

    def _parse_switch(self) -> N.SwitchStatement:
        self._expect_keyword("switch")
        self._expect_punct("(")
        discriminant = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: List[N.SwitchCase] = []
        while self.current.raw != "}":
            if self.current.raw == "case":
                self._advance()
                test = self.parse_expression()
            elif self.current.raw == "default":
                self._advance()
                test = None
            else:
                raise ParseError("expected 'case' or 'default'", self.current)
            self._expect_punct(":")
            consequent: List[N.Node] = []
            while self.current.raw not in ("}", "case", "default"):
                if self.current.kind == "eof":
                    raise ParseError("unterminated switch", self.current)
                consequent.append(self.parse_statement())
            cases.append(N.SwitchCase(test=test, consequent=consequent))
        self._advance()
        return N.SwitchStatement(discriminant=discriminant, cases=cases)

    def _parse_debugger(self) -> N.DebuggerStatement:
        self._expect_keyword("debugger")
        self._consume_semicolon()
        return N.DebuggerStatement()

    def _parse_with(self) -> N.WithStatement:
        self._expect_keyword("with")
        self._expect_punct("(")
        obj = self.parse_expression()
        self._expect_punct(")")
        return N.WithStatement(object=obj, body=self.parse_statement())

    # -- expressions ---------------------------------------------------------

    def parse_expression(self, no_in: bool = False) -> N.Node:
        """Parse a (possibly comma-sequenced) expression."""
        expression = self.parse_assignment(no_in=no_in)
        if self.current.raw != ",":
            return expression
        expressions = [expression]
        while self._eat_punct(","):
            expressions.append(self.parse_assignment(no_in=no_in))
        return N.SequenceExpression(expressions=expressions)

    def parse_assignment(self, no_in: bool = False) -> N.Node:
        """Parse an assignment-level (or conditional) expression."""
        depth = self._nest()
        left = self._parse_binary(no_in)
        token = self.current
        if token.raw == "?":
            self._advance()
            consequent = self.parse_assignment()
            self._expect_punct(":")
            alternate = self.parse_assignment(no_in=no_in)
            left = N.ConditionalExpression(test=left, consequent=consequent, alternate=alternate)
            token = self.current
        if token.raw in _ASSIGNMENT_OPS:
            if not isinstance(left, (N.Identifier, N.MemberExpression)):
                raise ParseError("invalid assignment target", token)
            self._advance()
            right = self.parse_assignment(no_in=no_in)
            left = N.AssignmentExpression(operator=token.raw, left=left, right=right)
        self.depth = depth
        return left

    def _parse_binary(self, no_in: bool) -> N.Node:
        """Operator-precedence parse of a binary chain, left-associative.

        Builds the same tree as precedence climbing, with an explicit
        operator stack instead of one recursive call per precedence level.
        """
        left = self._parse_unary(no_in)
        raw = self.current.raw
        precedence = _BINARY_PRECEDENCE.get(raw)
        if precedence is None or (no_in and raw == "in"):
            return left
        operands = [left]
        operators: List[tuple] = []
        while True:
            while operators and operators[-1][0] >= precedence:
                _reduce(operators, operands)
            operators.append((precedence, raw))
            self._advance()
            operands.append(self._parse_unary(no_in))
            raw = self.current.raw
            precedence = _BINARY_PRECEDENCE.get(raw)
            if precedence is None or (no_in and raw == "in"):
                break
        while operators:
            _reduce(operators, operands)
        return operands[0]

    def _parse_unary(self, no_in: bool) -> N.Node:
        """Parse one operand: prefix operators, a primary expression, its
        member and call suffixes, and a postfix ``++``/``--``."""
        token = self.current
        raw = token.raw
        if raw in _PREFIX_OPS:
            depth = self._nest()
            self._advance()
            argument = self._parse_unary(no_in)
            self.depth = depth
            if raw == "++" or raw == "--":
                return N.UpdateExpression(operator=raw, argument=argument, prefix=True)
            return N.UnaryExpression(operator=raw, argument=argument)
        # The nesting primaries are parsed here rather than in _parse_primary
        # to keep each nesting level within four frames (see MAX_NESTING).
        if token.kind == "identifier":
            self._advance()
            expression = N.Identifier(name=token.value)
        elif raw == "(":
            self._advance()
            expression = self.parse_expression()
            self._expect_punct(")")
        elif raw == "[":
            expression = self._parse_array()
        elif raw == "{":
            expression = self._parse_object()
        elif raw == "function":
            expression = self._parse_function_expression()
        elif raw == "new":
            expression = self._parse_new()
        else:
            expression = self._parse_primary()
        while True:
            raw = self.current.raw
            if raw == ".":
                self._advance()
                token = self.current
                if token.kind != "identifier" and token.kind != "keyword":
                    raise ParseError("expected property name", token)
                self._advance()
                prop = N.Identifier(name=token.raw)
                expression = N.MemberExpression(object=expression, property=prop, computed=False)
            elif raw == "(":
                call = N.CallExpression(callee=expression, arguments=self._parse_arguments())
                if (
                    expression.__class__ is N.Identifier
                    and expression.name in _DYNAMIC_CALLEES
                ) or (
                    expression.__class__ is N.MemberExpression
                    and not expression.computed
                    and expression.property.name in _DYNAMIC_METHODS
                ):
                    self.dynamic_calls.append(call)
                expression = call
            elif raw == "[":
                self._advance()
                prop = self.parse_expression()
                self._expect_punct("]")
                expression = N.MemberExpression(object=expression, property=prop, computed=True)
            elif (raw == "++" or raw == "--") and not self.current.newline_before:
                self._advance()
                return N.UpdateExpression(operator=raw, argument=expression, prefix=False)
            else:
                return expression

    def _parse_new(self) -> N.Node:
        # ``new new X(a)(b)``: each ``new`` takes the member accesses and the
        # argument list that follow the expression built so far.
        depth = self._nest()
        count = 0
        while self.current.raw == "new":
            self._advance()
            count += 1
        callee = self._parse_primary()
        for _ in range(count):
            # Member accesses bind tighter than the new-expression call.
            while True:
                if self._eat_punct("."):
                    token = self.current
                    if token.kind not in ("identifier", "keyword"):
                        raise ParseError("expected property name", token)
                    self._advance()
                    prop = N.Identifier(name=token.raw)
                    callee = N.MemberExpression(object=callee, property=prop, computed=False)
                elif self.current.raw == "[":
                    self._advance()
                    prop = self.parse_expression()
                    self._expect_punct("]")
                    callee = N.MemberExpression(object=callee, property=prop, computed=True)
                else:
                    break
            arguments = self._parse_arguments() if self.current.raw == "(" else []
            callee = N.NewExpression(callee=callee, arguments=arguments)
        self.depth = depth
        return callee

    def _parse_arguments(self) -> List[N.Node]:
        self._expect_punct("(")
        arguments: List[N.Node] = []
        if self.current.raw != ")":
            arguments.append(self.parse_assignment())
            while self._eat_punct(","):
                arguments.append(self.parse_assignment())
        self._expect_punct(")")
        return arguments

    def _parse_primary(self) -> N.Node:
        token = self.current
        kind = token.kind
        if kind == "identifier":
            self._advance()
            return N.Identifier(name=token.value)
        if kind == "string" or kind == "number":
            self._advance()
            return N.Literal(value=token.value, raw=token.raw)
        raw = token.raw
        if raw == "(":
            self._advance()
            expression = self.parse_expression()
            self._expect_punct(")")
            return expression
        if raw == "[":
            return self._parse_array()
        if raw == "{":
            return self._parse_object()
        if raw == "function":
            return self._parse_function_expression()
        if kind == "keyword":
            if raw == "this":
                self._advance()
                return N.ThisExpression()
            if raw == "true":
                self._advance()
                return N.Literal(value=True, raw="true")
            if raw == "false":
                self._advance()
                return N.Literal(value=False, raw="false")
            if raw == "null":
                self._advance()
                return N.Literal(value=None, raw="null")
            if raw == "undefined":
                self._advance()
                return N.Identifier(name="undefined")
        elif kind == "regex":
            self._advance()
            return N.Literal(value=token.raw, raw=token.raw, regex=token.value)
        raise ParseError("unexpected token", token)

    def _parse_function_expression(self) -> N.FunctionExpression:
        self._expect_keyword("function")
        name = None
        if self.current.kind == "identifier":
            name = self._parse_identifier()
        params, body = self._parse_function_rest()
        return N.FunctionExpression(id=name, params=params, body=body)

    def _parse_array(self) -> N.ArrayExpression:
        self._expect_punct("[")
        elements: List[Optional[N.Node]] = []
        while self.current.raw != "]":
            if self.current.raw == ",":
                self._advance()
                elements.append(None)  # elision
                continue
            elements.append(self.parse_assignment())
            if self.current.raw != "]":
                self._expect_punct(",")
        self._advance()
        return N.ArrayExpression(elements=elements)

    def _parse_object(self) -> N.ObjectExpression:
        depth = self._nest()
        self._expect_punct("{")
        properties: List[N.Property] = []
        while self.current.raw != "}":
            properties.append(self._parse_property())
            if self.current.raw != "}":
                self._expect_punct(",")
        self._advance()
        self.depth = depth
        return N.ObjectExpression(properties=properties)

    def _parse_property(self) -> N.Property:
        token = self.current
        # get/set accessors: ``get name() {...}`` — only when not followed
        # by ``:`` or ``(`` (which would make get/set a plain key).
        if (
            token.kind == "identifier"
            and token.value in ("get", "set")
            and self._peek().kind in ("identifier", "string", "number", "keyword")
        ):
            kind = token.value
            self._advance()
            key = self._parse_property_key()
            params, body = self._parse_function_rest()
            value = N.FunctionExpression(id=None, params=params, body=body)
            return N.Property(key=key, value=value, kind=kind)
        key = self._parse_property_key()
        self._expect_punct(":")
        value = self.parse_assignment()
        return N.Property(key=key, value=value, kind="init")

    def _parse_property_key(self) -> N.Node:
        token = self.current
        if token.kind in ("identifier", "keyword"):
            self._advance()
            return N.Identifier(name=token.raw)
        if token.kind == "string":
            self._advance()
            return N.Literal(value=token.value, raw=token.raw)
        if token.kind == "number":
            self._advance()
            return N.Literal(value=token.value, raw=token.raw)
        raise ParseError("expected property key", token)


def _reduce(operators: list, operands: list) -> None:
    """Pop one operator and its two operands into a binary node."""
    operator = operators.pop()[1]
    right = operands.pop()
    cls = N.LogicalExpression if operator in ("&&", "||") else N.BinaryExpression
    operands[-1] = cls(operator=operator, left=operands[-1], right=right)


#: Statement parsers by leading token; every other statement is an
#: expression statement or a labeled statement.
_STATEMENT_PARSERS = {
    "{": Parser.parse_block,
    ";": Parser._parse_empty,
    "var": Parser._parse_variable_statement,
    "function": Parser._parse_function_declaration,
    "if": Parser._parse_if,
    "for": Parser._parse_for,
    "while": Parser._parse_while,
    "do": Parser._parse_do_while,
    "return": Parser._parse_return,
    "break": Parser._parse_break,
    "continue": Parser._parse_continue,
    "throw": Parser._parse_throw,
    "try": Parser._parse_try,
    "switch": Parser._parse_switch,
    "debugger": Parser._parse_debugger,
    "with": Parser._parse_with,
}


def parse(source: str) -> N.Program:
    """Parse JavaScript ``source`` into an ESTree-style :class:`Program`.

    Raises :class:`~repro.jsast.tokenizer.TokenizeError` or
    :class:`ParseError` and nothing else; input nested deeper than
    :data:`MAX_NESTING` is a ParseError, so a parse never needs more than
    the default recursion limit.
    """
    return Parser(tokenize(source)).parse_program()
