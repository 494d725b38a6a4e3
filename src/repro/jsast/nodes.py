"""Abstract syntax tree node types for the ES5-subset JavaScript parser.

The node vocabulary follows the ESTree specification, which is what the
paper's feature-extraction step (built on esprima-style ASTs) assumes.
Each node is a lightweight dataclass; child discovery for tree walking is
generic over dataclass fields, so adding a node type never requires
touching the walker.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterator, Optional, Tuple, Union

#: Dataclass field names per node class, looked up once per class.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def field_names(cls: type) -> Tuple[str, ...]:
    """The dataclass field names of node class ``cls``, in declaration order."""
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return names


@dataclass
class Node:
    """Base class for all AST nodes.

    ``type`` mirrors the ESTree node-type string and is what the feature
    extractor uses as the *context* half of its ``context:text`` features.
    """

    @property
    def type(self) -> str:
        """The ESTree node-type string."""
        return self.__class__.__name__

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes in source order."""
        for name in field_names(self.__class__):
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def replace_child(self, old: "Node", new: "Node") -> bool:
        """Replace a direct child ``old`` with ``new``; return success."""
        for name in field_names(self.__class__):
            value = getattr(self, name)
            if value is old:
                setattr(self, name, new)
                return True
            if isinstance(value, list):
                for i, item in enumerate(value):
                    if item is old:
                        value[i] = new
                        return True
        return False


# --------------------------------------------------------------------------
# Top level and statements
# --------------------------------------------------------------------------


@dataclass
class Program(Node):
    """ESTree ``Program`` node.

    ``dynamic_calls`` is not a field, so neither ``children()`` nor ``==``
    sees it. :func:`~repro.jsast.parser.parse` sets it to every
    ``CallExpression`` whose callee could run code it is handed (``eval``,
    ``Function``, ``setTimeout``, ``setInterval``, or a non-computed
    ``.eval``/``.write``/``.writeln`` member), which lets the unpacker skip
    its tree walks. ``None`` means unknown: a hand-built or edited tree.
    """
    body: list = field(default_factory=list)
    dynamic_calls: ClassVar[Optional[list]] = None


@dataclass
class EmptyStatement(Node):
    """ESTree ``EmptyStatement`` node."""
    pass


@dataclass
class ExpressionStatement(Node):
    """ESTree ``ExpressionStatement`` node."""
    expression: Node = None


@dataclass
class BlockStatement(Node):
    """ESTree ``BlockStatement`` node."""
    body: list = field(default_factory=list)


@dataclass
class VariableDeclarator(Node):
    """ESTree ``VariableDeclarator`` node."""
    id: Node = None
    init: Optional[Node] = None


@dataclass
class VariableDeclaration(Node):
    """ESTree ``VariableDeclaration`` node."""
    declarations: list = field(default_factory=list)
    kind: str = "var"


@dataclass
class FunctionDeclaration(Node):
    """ESTree ``FunctionDeclaration`` node."""
    id: Optional[Node] = None
    params: list = field(default_factory=list)
    body: Node = None


@dataclass
class ReturnStatement(Node):
    """ESTree ``ReturnStatement`` node."""
    argument: Optional[Node] = None


@dataclass
class IfStatement(Node):
    """ESTree ``IfStatement`` node."""
    test: Node = None
    consequent: Node = None
    alternate: Optional[Node] = None


@dataclass
class ForStatement(Node):
    """ESTree ``ForStatement`` node."""
    init: Optional[Node] = None
    test: Optional[Node] = None
    update: Optional[Node] = None
    body: Node = None


@dataclass
class ForInStatement(Node):
    """ESTree ``ForInStatement`` node."""
    left: Node = None
    right: Node = None
    body: Node = None


@dataclass
class WhileStatement(Node):
    """ESTree ``WhileStatement`` node."""
    test: Node = None
    body: Node = None


@dataclass
class DoWhileStatement(Node):
    """ESTree ``DoWhileStatement`` node."""
    body: Node = None
    test: Node = None


@dataclass
class BreakStatement(Node):
    """ESTree ``BreakStatement`` node."""
    label: Optional[Node] = None


@dataclass
class ContinueStatement(Node):
    """ESTree ``ContinueStatement`` node."""
    label: Optional[Node] = None


@dataclass
class ThrowStatement(Node):
    """ESTree ``ThrowStatement`` node."""
    argument: Node = None


@dataclass
class CatchClause(Node):
    """ESTree ``CatchClause`` node."""
    param: Optional[Node] = None
    body: Node = None


@dataclass
class TryStatement(Node):
    """ESTree ``TryStatement`` node."""
    block: Node = None
    handler: Optional[Node] = None
    finalizer: Optional[Node] = None


@dataclass
class SwitchCase(Node):
    """ESTree ``SwitchCase`` node."""
    test: Optional[Node] = None  # None for ``default:``
    consequent: list = field(default_factory=list)


@dataclass
class SwitchStatement(Node):
    """ESTree ``SwitchStatement`` node."""
    discriminant: Node = None
    cases: list = field(default_factory=list)


@dataclass
class LabeledStatement(Node):
    """ESTree ``LabeledStatement`` node."""
    label: Node = None
    body: Node = None


@dataclass
class DebuggerStatement(Node):
    """ESTree ``DebuggerStatement`` node."""
    pass


@dataclass
class WithStatement(Node):
    """ESTree ``WithStatement`` node."""
    object: Node = None
    body: Node = None


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Identifier(Node):
    """ESTree ``Identifier`` node."""
    name: str = ""


@dataclass
class Literal(Node):
    """A string, number, boolean, ``null`` or regular-expression literal.

    For regex literals ``value`` is the raw source text and ``regex`` holds
    the ``(pattern, flags)`` pair.
    """

    value: object = None
    raw: str = ""
    regex: Optional[tuple] = None


@dataclass
class ThisExpression(Node):
    """ESTree ``ThisExpression`` node."""
    pass


@dataclass
class ArrayExpression(Node):
    """ESTree ``ArrayExpression`` node."""
    elements: list = field(default_factory=list)  # items may be None (elision)


@dataclass
class Property(Node):
    """ESTree ``Property`` node."""
    key: Node = None
    value: Node = None
    kind: str = "init"  # init | get | set
    computed: bool = False


@dataclass
class ObjectExpression(Node):
    """ESTree ``ObjectExpression`` node."""
    properties: list = field(default_factory=list)


@dataclass
class FunctionExpression(Node):
    """ESTree ``FunctionExpression`` node."""
    id: Optional[Node] = None
    params: list = field(default_factory=list)
    body: Node = None


@dataclass
class UnaryExpression(Node):
    """ESTree ``UnaryExpression`` node."""
    operator: str = ""
    argument: Node = None
    prefix: bool = True


@dataclass
class UpdateExpression(Node):
    """ESTree ``UpdateExpression`` node."""
    operator: str = ""
    argument: Node = None
    prefix: bool = False


@dataclass
class BinaryExpression(Node):
    """ESTree ``BinaryExpression`` node."""
    operator: str = ""
    left: Node = None
    right: Node = None


@dataclass
class LogicalExpression(Node):
    """ESTree ``LogicalExpression`` node."""
    operator: str = ""
    left: Node = None
    right: Node = None


@dataclass
class AssignmentExpression(Node):
    """ESTree ``AssignmentExpression`` node."""
    operator: str = "="
    left: Node = None
    right: Node = None


@dataclass
class ConditionalExpression(Node):
    """ESTree ``ConditionalExpression`` node."""
    test: Node = None
    consequent: Node = None
    alternate: Node = None


@dataclass
class CallExpression(Node):
    """ESTree ``CallExpression`` node."""
    callee: Node = None
    arguments: list = field(default_factory=list)


@dataclass
class NewExpression(Node):
    """ESTree ``NewExpression`` node."""
    callee: Node = None
    arguments: list = field(default_factory=list)


@dataclass
class MemberExpression(Node):
    """ESTree ``MemberExpression`` node."""
    object: Node = None
    property: Node = None
    computed: bool = False


@dataclass
class SequenceExpression(Node):
    """ESTree ``SequenceExpression`` node."""
    expressions: list = field(default_factory=list)


STATEMENT_TYPES = frozenset(
    {
        "ExpressionStatement",
        "BlockStatement",
        "EmptyStatement",
        "VariableDeclaration",
        "FunctionDeclaration",
        "ReturnStatement",
        "IfStatement",
        "ForStatement",
        "ForInStatement",
        "WhileStatement",
        "DoWhileStatement",
        "BreakStatement",
        "ContinueStatement",
        "ThrowStatement",
        "TryStatement",
        "SwitchStatement",
        "LabeledStatement",
        "DebuggerStatement",
        "WithStatement",
    }
)

AnyNode = Union[Node, None]
